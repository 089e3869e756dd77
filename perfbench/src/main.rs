//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed|serve-predict|build-nasa31 --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Every workload makes its inputs from
//! `--seed`, measures for about `--seconds`, checks the program's outputs
//! and prints a report: one line per metric with its unit and sample
//! count, notes on the run, and as the last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! JSON carries the end-to-end metrics; with `--trace 1` the run records
//! spans around each layer's calls, writes them to
//! `.bench_work/spans-<workload>.tsv` and the JSON carries the per-layer
//! metrics. A failed check exits 1; bad arguments exit 2. See README.md.

mod build;
mod serve;
mod spans;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: pbppm_obs::alloc::CountingAllocator = pbppm_obs::alloc::CountingAllocator;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: &[(&str, &str)] = &[
    ("predict_slo_ratio", "ratio"),
    ("capacity_rps", "1/s"),
    ("hint_hit_ratio", "ratio"),
    ("resident_bytes", "B"),
    ("build_s", "s"),
    ("load_s", "s"),
    ("build_peak_mb", "MB"),
    ("snapshot_bytes", "B"),
    ("setup_s", "s"),
];

/// The per-layer metrics every traced run reports (0 where a workload
/// does not reach the layer).
const PER_LAYER: &[(&str, &str)] = &[
    ("sharded.predict_latency_us.p50", "us"),
    ("sharded.predict_latency_us.p99", "us"),
    ("sharded.queue_wait_us.p50", "us"),
    ("sharded.queue_wait_us.p99", "us"),
    ("sharded.dispatch_us.p50", "us"),
    ("sharded.dispatch_us.p99", "us"),
    ("sharded.batch_depth.mean", "lines"),
    ("sharded.gen_late_us.p99", "us"),
    ("sharded.slow_dispatch_explained", "ratio"),
    ("session.trains", "count"),
    ("session.train_us.p50", "us"),
    ("session.train_us.p99", "us"),
    ("session.train_latency_p99_us", "us"),
    ("pb_online.rebuilds", "count"),
    ("pb_online.rebuild_ms.p50", "ms"),
    ("pb_online.rebuild_ms.p99", "ms"),
    ("verify.audits", "count"),
    ("verify.rejected", "count"),
    ("verify.audit_ms.p50", "ms"),
    ("verify.audit_ms.p99", "ms"),
    ("publish.publishes", "count"),
    ("publish.clone_ms.p50", "ms"),
    ("publish.clone_ms.p99", "ms"),
    ("publish.swap_us.p99", "us"),
    ("predict.rank_ns.p50", "ns"),
    ("predict.rank_ns.p99", "ns"),
    ("predict.reader_ns.p50", "ns"),
    ("predict.reader_ns.p99", "ns"),
    ("predict.strategy.scan", "count"),
    ("predict.strategy.index", "count"),
    ("predict.hints.mean", "count"),
    ("predict.empty_ratio", "ratio"),
    ("ingest.parse_s", "s"),
    ("ingest.lines_per_s", "1/s"),
    ("ingest.rejected_lines", "count"),
    ("ingest.peak_mb", "MB"),
    ("sessionize.s", "s"),
    ("sessionize.sessions", "count"),
    ("popularity.count_s", "s"),
    ("pb.train_s", "s"),
    ("pb.finalize_s", "s"),
    ("pb.restore_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.write_s", "s"),
    ("snapshot.read_s", "s"),
    ("snapshot.decode_s", "s"),
    ("build.traced_s", "s"),
    ("load.traced_s", "s"),
    ("build.span_coverage", "ratio"),
    ("load.span_coverage", "ratio"),
    ("model.nodes", "count"),
    ("model.tree_bytes", "B"),
    ("model.frozen_bytes", "B"),
    ("model.index_bytes", "B"),
    ("model.interner_bytes", "B"),
    ("model.window_bytes", "B"),
    ("model.measured_bytes", "B"),
    ("model.self_reported_bytes", "B"),
    ("trace.overhead.predict_p50_us", "us"),
    ("trace.overhead.capacity_rps", "1/s"),
];

const WORKLOADS: &[&str] = &["serve-mixed", "serve-predict", "build-nasa31"];

/// Worker threads: the host's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Heap a value occupies, measured with the counting allocator around
/// building a copy of it.
pub fn heap_of<T>(make: impl FnOnce() -> T) -> f64 {
    let before = pbppm_obs::alloc::live_bytes();
    let copy = make();
    let bytes = pbppm_obs::alloc::live_bytes().saturating_sub(before);
    drop(copy);
    bytes as f64
}

/// Everything one run measured and checked.
pub struct Outcome {
    pub workload: String,
    e2e: BTreeMap<&'static str, (f64, usize)>,
    layers: BTreeMap<&'static str, f64>,
    info: Vec<String>,
    notes: Vec<String>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
}

impl Outcome {
    fn new(workload: &str) -> Self {
        Self {
            workload: workload.to_owned(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            info: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// An end-to-end metric with its sample count.
    pub fn e2e(&mut self, name: &'static str, value: f64, samples: usize) {
        self.e2e.insert(name, (value, samples));
    }

    /// A per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// A figure printed in the report but not in the JSON.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.info
            .push(format!("{name:<32} {value:>16.4} {unit:<6} n={samples}"));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: usize, failed: usize, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(format!("{failed} x {what}"));
        }
    }

    /// One correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// The model-storage layer: counts and bytes, self-reported beside
/// measured. `v` = nodes, tree, frozen, index, interner, window,
/// measured model, self-reported model.
pub fn storage_layers(v: [f64; 8], out: &mut Outcome) {
    let names = [
        "model.nodes",
        "model.tree_bytes",
        "model.frozen_bytes",
        "model.index_bytes",
        "model.interner_bytes",
        "model.window_bytes",
        "model.measured_bytes",
        "model.self_reported_bytes",
    ];
    for (name, value) in names.into_iter().zip(v) {
        out.layer(name, value);
    }
}

/// The predict layer from span self times (ns) and per-predict counts.
pub fn predict_layers(
    rank: &[f64],
    reader: &[f64],
    scan: usize,
    index: usize,
    hints: &[f64],
    out: &mut Outcome,
) {
    let rank = stats::sorted(rank);
    let reader = stats::sorted(reader);
    out.layer("predict.rank_ns.p50", stats::percentile(&rank, 0.5));
    out.layer("predict.rank_ns.p99", stats::percentile(&rank, 0.99));
    out.layer("predict.reader_ns.p50", stats::percentile(&reader, 0.5));
    out.layer("predict.reader_ns.p99", stats::percentile(&reader, 0.99));
    out.layer("predict.strategy.scan", scan as f64);
    out.layer("predict.strategy.index", index as f64);
    out.layer("predict.hints.mean", stats::mean(hints));
    let empty = hints.iter().filter(|&&n| n == 0.0).count();
    out.layer(
        "predict.empty_ratio",
        empty as f64 / hints.len().max(1) as f64,
    );
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag}: missing value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A JSON number: every digit as measured, non-finite values as 0.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: {}: {e}", work.display());
        std::process::exit(1);
    }
    let mut out = Outcome::new(&args.workload);
    out.note(format!(
        "workload {}, seed {}, seconds {}, trace {}, cores {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        cores()
    ));
    let result = match args.workload.as_str() {
        "serve-mixed" => serve::run(
            serve::Mix::Mixed,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut out,
        ),
        "serve-predict" => serve::run(
            serve::Mix::PredictOnly,
            args.seed,
            args.seconds,
            args.trace,
            &work,
            &mut out,
        ),
        _ => build::run(args.seed, args.seconds, args.trace, &work, &mut out),
    };
    if let Err(e) = result {
        eprintln!("error: {} failed: {e}", args.workload);
        std::process::exit(1);
    }

    let mut report = String::new();
    for note in &out.notes {
        let _ = writeln!(report, "# {note}");
    }
    for &(name, unit) in END_TO_END {
        let (value, n) = out.e2e.get(name).copied().unwrap_or((0.0, 0));
        let _ = writeln!(report, "{name:<32} {value:>16.4} {unit:<6} n={n}");
    }
    for line in &out.info {
        let _ = writeln!(report, "{line}");
    }
    let error_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "{:<32} {error_ratio:>16.6} {:<6} n={}",
        "error_ratio", "ratio", out.attempted
    );
    if args.trace {
        for &(name, unit) in PER_LAYER {
            let value = out.layers.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(report, "{name:<32} {value:>16.4} {unit}");
        }
    }
    for f in &out.failures {
        let _ = writeln!(report, "# FAILED: {f}");
    }
    let chosen: Vec<String> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = out.layers.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = out.e2e.get(name).map_or(0.0, |v| v.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect()
    };
    let correct = out.failed == 0;
    print!("{report}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        chosen.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
