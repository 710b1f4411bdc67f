//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-feedback|estimate-cold|build-corpus>
//!           --seed <n> --seconds <s> --trace <0|1> [--short] [--perturb]
//! ```
//!
//! Every input is generated from `--seed`. The run measures for
//! `--seconds`, checks the program's outputs, and prints as its last
//! stdout line one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The line before it is the full report: run metadata, every metric by
//! the workload's own names, and span self times. Spans of a traced run
//! are written to `.bench_out/`. Any failed check makes the exit status 1.
//! `--short` shrinks every input for the benchmark's own tests;
//! `--perturb` corrupts one expected value so the checks must fail.
//! See README.md in this directory.

mod build;
mod estimate;
mod fixture;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tl_obs::json::Json;

use report::{Checks, Named};

/// One run's parameters.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub short: bool,
    pub perturb: bool,
    /// Scratch directory for this run's files, inside the checkout.
    pub dir: PathBuf,
    /// Zero point of every timestamp and span of the run.
    pub epoch: Instant,
}

/// What a workload hands back.
pub struct Outcome {
    pub checks: Checks,
    pub e2e: Named,
    pub layers: Named,
    /// The workload's metrics under its own names (`serve.p50_us`, ...).
    pub named: Named,
    /// The workload's parameters.
    pub params: Vec<(String, Json)>,
    pub spans: Vec<trace::Span>,
    /// Per-window figures of the workload's own operation.
    pub windows: Json,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            checks: Checks::default(),
            e2e: Named::default(),
            layers: Named::default(),
            named: Named::default(),
            params: Vec::new(),
            spans: Vec::new(),
            windows: Json::Null,
        }
    }
}

const WORKLOADS: [&str; 4] = [
    "serve-hot",
    "serve-feedback",
    "estimate-cold",
    "build-corpus",
];

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--short] [--perturb]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let (mut short, mut perturb) = (false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--short" => short = true,
            "--perturb" => perturb = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let dir = PathBuf::from(".bench_out").join(format!(
        "{workload}-seed{seed}-trace{}-pid{}",
        u8::from(trace),
        std::process::id()
    ));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        short,
        perturb,
        dir,
        epoch: Instant::now(),
    })
}

/// Output of a command, or `unknown` (the checkout need not be a git
/// repository).
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(msg) => return usage(&msg),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.dir.display());
        return ExitCode::from(2);
    }
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let mut outcome = match ctx.workload.as_str() {
        "serve-hot" => serve::run(&ctx, serve::Mode::Hot),
        "serve-feedback" => serve::run(&ctx, serve::Mode::Feedback),
        "estimate-cold" => estimate::run(&ctx),
        _ => build::run(&ctx),
    };
    outcome.e2e.set("peak_rss_mb", stats::peak_rss_mb());

    let (declared, values) = if ctx.trace {
        (report::PER_LAYER, &outcome.layers)
    } else {
        (report::END_TO_END, &outcome.e2e)
    };
    let (metrics, missing) = report::metrics_json(declared, values);
    for name in missing {
        outcome
            .checks
            .check(false, || format!("metric `{name}` has no finite value"));
    }

    if ctx.trace {
        let path = ctx.dir.with_extension("spans.tsv");
        if let Err(e) = trace::write_tsv(&outcome.spans, &path) {
            outcome
                .checks
                .check(false, || format!("cannot write {}: {e}", path.display()));
        }
    }
    // The run's inputs are regenerated from the seed; only spans and the
    // report are kept.
    let _ = std::fs::remove_dir_all(&ctx.dir);

    let checks = &outcome.checks;
    let self_times: Vec<(String, Json)> = trace::by_name(&outcome.spans)
        .into_iter()
        .map(|(name, s)| {
            let obj = Json::Obj(vec![
                ("count".into(), Json::UInt(s.count as u64)),
                ("self_ms".into(), Json::Num(s.total_ns as f64 / 1e6)),
                ("p50_ns".into(), Json::Num(s.p50_ns)),
                ("p99_ns".into(), Json::Num(s.p99_ns)),
            ]);
            (name.to_string(), obj)
        })
        .collect();
    let meta = Json::Obj(vec![
        ("workload".into(), Json::Str(ctx.workload.clone())),
        ("seed".into(), Json::UInt(ctx.seed)),
        ("seconds".into(), Json::Num(ctx.seconds)),
        ("trace".into(), Json::Bool(ctx.trace)),
        ("short".into(), Json::Bool(ctx.short)),
        (
            "host_threads".into(),
            Json::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        (
            "git_rev".into(),
            Json::Str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        (
            "rustc".into(),
            Json::Str(command_output("rustc", &["--version"])),
        ),
    ]);
    let report = Json::Obj(vec![(
        "report".into(),
        Json::Obj(vec![
            ("meta".into(), meta),
            (
                "params".into(),
                Json::Obj(std::mem::take(&mut outcome.params)),
            ),
            ("named".into(), outcome.named.to_json()),
            ("end_to_end".into(), outcome.e2e.to_json()),
            ("per_layer".into(), outcome.layers.to_json()),
            ("self_times".into(), Json::Obj(self_times)),
            (
                "windows".into(),
                std::mem::replace(&mut outcome.windows, Json::Null),
            ),
            ("fail_rate".into(), Json::Num(checks.fail_rate())),
            (
                "failures".into(),
                Json::Arr(checks.notes.iter().map(|n| Json::Str(n.clone())).collect()),
            ),
        ]),
    )]);
    println!("{}", report::to_string(&report));
    let correct = checks.failed == 0;
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::UInt(checks.attempted.max(1))),
        ("failed".into(), Json::UInt(checks.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", report::to_string(&result));
    for note in &checks.notes {
        eprintln!("perfbench: check failed: {note}");
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
