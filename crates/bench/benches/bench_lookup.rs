//! Summary lookup store ablation: hash table vs prefix trie (§4.2).
//!
//! The paper reports trying a prefix-tree store for the lattice statistics
//! and finding the hash table faster; this bench makes the claim
//! measurable on this implementation.

use criterion::{criterion_group, criterion_main, Criterion};
use tl_bench::trie::trie_of_summary;
use tl_datagen::{Dataset, GenConfig};
use tl_twig::TwigKey;
use treelattice::{BuildConfig, TreeLattice};

fn bench_lookup(c: &mut Criterion) {
    let doc = Dataset::Nasa.generate(GenConfig {
        seed: 8,
        target_elements: 20_000,
    });
    let lattice = TreeLattice::build(&doc, &BuildConfig::with_k(4));
    let summary = lattice.summary();
    let trie = trie_of_summary(summary);
    let keys: Vec<TwigKey> = summary.iter().map(|(k, _)| k.clone()).collect();
    assert!(!keys.is_empty());

    let mut group = c.benchmark_group("summary_lookup");
    group.bench_function("hash_table", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for key in &keys {
                acc = acc.wrapping_add(summary.stored(key).unwrap_or(0));
            }
            std::hint::black_box(acc)
        })
    });
    group.bench_function("prefix_trie", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for key in &keys {
                acc = acc.wrapping_add(trie.get(key.as_bytes()).unwrap_or(0));
            }
            std::hint::black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
