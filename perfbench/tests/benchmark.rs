//! The benchmark's own tests: a short run of every workload reports
//! every metric `BENCHMARK.json` declares, with its unit, and passes
//! every check; a perturbed expected value makes the checks fail.

use std::path::PathBuf;
use std::process::Command;

use tl_obs::json::{parse, Json};

const WORKLOADS: [&str; 4] = [
    "serve-hot",
    "serve-feedback",
    "estimate-cold",
    "build-corpus",
];

struct Run {
    code: Option<i32>,
    result: Json,
    report: Json,
}

fn run(workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests");
    std::fs::create_dir_all(&cwd).expect("create the test directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .args(extra)
        .current_dir(&cwd)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: too little output: {stdout}");
    let result = parse(lines[lines.len() - 1]).expect("the last line is JSON");
    let report = parse(lines[lines.len() - 2]).expect("the report line is JSON");
    Run {
        code: out.status.code(),
        result,
        report: report.get("report").expect("report object").clone(),
    }
}

/// `(name, unit)` of every metric in a section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_reports_its_metrics_and_passes_its_checks() {
    for (i, workload) in WORKLOADS.iter().enumerate() {
        for trace in [false, true] {
            // Two seeds between them, so no workload runs on one seed only.
            let seed = 1 + (i as u64 + u64::from(trace)) % 2;
            let r = run(workload, seed, trace, &[]);
            let failures = r.report.get("failures");
            assert_eq!(r.code, Some(0), "{workload} trace={trace}: {failures:?}");
            assert_eq!(r.result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(r.result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(r.result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = r
                .result
                .get("metrics")
                .and_then(Json::entries)
                .expect("metrics");
            let section = if trace { "per_layer" } else { "end_to_end" };
            let want = declared(section);
            let got: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            let want_names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(got, want_names, "{workload} trace={trace}");
            for ((name, unit), (_, m)) in want.iter().zip(metrics) {
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            let meta = r.report.get("meta").expect("run metadata");
            for key in ["seed", "host_threads", "git_rev", "rustc"] {
                assert!(meta.get(key).is_some(), "{workload}: meta lacks {key}");
            }
        }
    }
}

#[test]
fn a_perturbed_expected_value_fails_the_checks() {
    for workload in WORKLOADS {
        let r = run(workload, 1, false, &["--perturb"]);
        assert_eq!(r.code, Some(1), "{workload} must exit non-zero");
        assert_eq!(
            r.result.get("correct"),
            Some(&Json::Bool(false)),
            "{workload}"
        );
        assert!(
            r.result.get("failed").and_then(Json::as_u64) > Some(0),
            "{workload}"
        );
        let fail_rate = r
            .report
            .get("fail_rate")
            .and_then(Json::as_f64)
            .expect("fail_rate");
        assert!(fail_rate > 0.0, "{workload}: fail_rate {fail_rate}");
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--workload", "serve-hot", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
