//! Umbrella gate runner; see `tl_bench::gate_runner`.
//!
//! ```text
//! gates [--only g1,g2,...] [--seed N] [--write-thresholds]
//!       [--thresholds <path>] [--factor F] [--list]
//! ```
//!
//! Runs every CI gate (or the `--only` subset, comma-separated) through
//! the shared library runner. `--write-thresholds` regenerates the
//! selected gates' committed files (for `perf`, its baseline); `--factor`
//! sets the perf smoke's headroom. `--seed`
//! selects a matrix slot for the gates that take one (golden, server) and
//! is a usage error for the rest. `--thresholds` overrides the committed
//! file and therefore requires exactly one selected gate. Exits 1 if any
//! selected gate fails, 2 on usage.

use std::path::PathBuf;

use tl_bench::gate_runner::{run_gate, Gate, GateRun};

fn main() {
    let mut only: Option<Vec<Gate>> = None;
    let mut opts = GateRun::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => match args.next() {
                Some(list) => {
                    let mut gates = Vec::new();
                    for name in list.split(',').filter(|s| !s.is_empty()) {
                        match Gate::parse(name) {
                            Some(g) => gates.push(g),
                            None => usage(&format!(
                                "unknown gate `{name}` (expected one of {})",
                                names().join(", ")
                            )),
                        }
                    }
                    if gates.is_empty() {
                        usage("--only needs at least one gate");
                    }
                    only = Some(gates);
                }
                None => usage("--only needs a comma-separated gate list"),
            },
            "--seed" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(s)) => opts.seed = Some(s),
                _ => usage("--seed needs an integer value"),
            },
            "--write-thresholds" => opts.write = true,
            "--thresholds" => match args.next() {
                Some(p) => opts.thresholds = Some(PathBuf::from(p)),
                None => usage("--thresholds needs a value"),
            },
            "--factor" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 => opts.perf_factor = f,
                _ => usage("--factor needs a positive number"),
            },
            "--list" => {
                for gate in Gate::ALL {
                    println!("{}", gate.name());
                }
                return;
            }
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let selected = only.unwrap_or_else(|| Gate::ALL.to_vec());
    if opts.thresholds.is_some() && selected.len() != 1 {
        usage("--thresholds overrides one file; use --only to select exactly one gate");
    }

    let mut failed = Vec::new();
    for (i, gate) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("=== gate: {} ===", gate.name());
        match run_gate(*gate, &opts) {
            0 => {}
            2 => std::process::exit(2),
            _ => failed.push(gate.name()),
        }
    }
    if !failed.is_empty() {
        eprintln!("gates FAILED: {}", failed.join(", "));
        std::process::exit(1);
    }
    println!();
    println!("all {} selected gate(s) passed", selected.len());
}

fn names() -> Vec<&'static str> {
    Gate::ALL.iter().map(|g| g.name()).collect()
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: gates [--only g1,g2,...] [--seed N] [--write-thresholds] [--thresholds <path>] [--factor F] [--list]"
    );
    eprintln!("gates: {}", names().join(", "));
    std::process::exit(2);
}
