//! The serve workloads: a warm 4-shard [`ShardedServer`] answering an
//! open-loop Poisson stream, then the same lines closed-loop.
//!
//! Set-up generates the NASA-like sessions, opens the server with `pbppm
//! serve`'s [`ServeOptions`] defaults (checkpointing and the periodic
//! metrics flush off, see the README) and trains whole sessions until
//! every shard's window is full. One `checkpoint` command then persists
//! the warm state, and every timed phase starts from a server reopened
//! from that checkpoint — the production restart path, timed as `load_s`.
//!
//! Timed traffic is the sessions that follow the warm-fill, each as
//! predicts on its 1–4-click prefixes followed (in `serve-mixed`) by a
//! `train` of the whole session, routed over 64 `@client` tokens.
//!
//! The traced run replays every line of its open-loop phase on a twin
//! of each shard — an [`OnlinePbPpm`] restored from the same checkpoint
//! plus the shard's interner, live evaluator and epoch publisher — so
//! the rebuild, audit, publish and predict layers that `handle_batch`
//! reaches only internally get spans of their own. The twin must answer
//! every predict byte-identically and end on the same published models.

use crate::spans::{Tracer, ROOT};
use crate::stats::{digest, hash_str, median, percentile, sorted, supported_tail};
use crate::workload::{hints_contain, nasa_sessions, prefixes};
use crate::Outcome;
use pbppm_core::eval::EvalConfig;
use pbppm_core::snapshot::{ModelImage, SnapshotFile, SnapshotStore};
use pbppm_core::{
    shard_of, EpochPublisher, EpochReader, Interner, LiveEval, LiveEvalConfig, MatchStrategy,
    ModelRef, OnlinePbPpm, PbConfig, PbPpm, PredictUsage, Prediction, Predictor, UrlId,
};
use pbppm_obs::alloc::{live_bytes, peak_bytes, reset_peak_bytes};
use pbppm_serve::sharded::predict_published;
use pbppm_serve::{PublishedModel, ServeOptions, ShardedOptions, ShardedServer};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Model shards.
const SHARDS: usize = 4;
/// Distinct `@client` routing tokens.
const CLIENTS: usize = 64;
/// Lines per dispatch, the serve front-end's drain cap.
const MAX_BATCH: usize = 256;
/// Days of NASA-like trace: the warm-fill takes the first ~2, the timed
/// phase the rest (predict-only traffic cycles through them).
const TRACE_DAYS: usize = 6;
/// A predict meets its objective when answered `ok` within this long of
/// its scheduled arrival.
const SLO: Duration = Duration::from_millis(1);
/// Set-ups per run; `setup_s`, `build_s`, `build_peak_mb`,
/// `resident_bytes` and `snapshot_bytes` report their medians.
const SETUPS: usize = 3;
/// Reopens from the checkpoint per run, at least (each block takes two);
/// `load_s` reports their median.
const LOADS: usize = 25;
/// Timed blocks per run, each from a freshly reopened warm server.
const BLOCKS: usize = 5;
/// The run is invalid when requests complete at less than this share of
/// the offered rate.
const MIN_ACHIEVED_SHARE: f64 = 0.95;

/// Which lines the timed phase sends.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Predicts plus one `train` per session (~30% writes), 500 req/s.
    Mixed,
    /// Predicts only, 5000 req/s.
    PredictOnly,
}

impl Mix {
    pub fn rate(self) -> f64 {
        match self {
            Mix::Mixed => 500.0,
            Mix::PredictOnly => 5_000.0,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Train,
    Predict,
}

/// One protocol line of the timed phase.
struct Line {
    text: String,
    kind: Kind,
    /// The session's actual next URL (predicts only).
    next: String,
}

fn options() -> ShardedOptions {
    ShardedOptions {
        shards: SHARDS,
        threads: crate::cores(),
        serve: ServeOptions {
            checkpoint_every: u64::MAX,
            flush_every: 0,
            ..ServeOptions::default()
        },
    }
}

fn client(i: usize) -> String {
    format!("c{}", i % CLIENTS)
}

/// Sessions needed, in order, until every shard's window is full.
fn warm_count(sessions: &[Vec<String>], window: usize) -> Option<usize> {
    let mut per_shard = [0usize; SHARDS];
    for i in 0..sessions.len() {
        per_shard[shard_of(&client(i), SHARDS)] += 1;
        if per_shard.iter().all(|&n| n >= window) {
            return Some(i + 1);
        }
    }
    None
}

fn timed_lines(sessions: &[Vec<String>], first: usize, mix: Mix) -> Vec<Line> {
    let mut lines = Vec::new();
    for (i, s) in sessions.iter().enumerate().skip(first) {
        let c = client(i);
        for (ctx, next) in prefixes(s) {
            lines.push(Line {
                text: format!("predict @{c} {}", ctx.join(",")),
                kind: Kind::Predict,
                next: next.to_owned(),
            });
        }
        if mix == Mix::Mixed {
            lines.push(Line {
                text: format!("train @{c} {}", s.join(",")),
                kind: Kind::Train,
                next: String::new(),
            });
        }
    }
    lines
}

/// Poisson arrival offsets: exponential gaps at `rate`, fixed up front.
fn arrivals(rate: f64, seconds: f64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_a11c_e5ca_1e00);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// What one set-up produced and cost.
struct Setup {
    lines: Vec<Line>,
    setup_s: f64,
    build_s: f64,
    build_peak_bytes: f64,
    resident_bytes: f64,
    snapshot_bytes: f64,
}

/// Generates the sessions, opens a fresh server in `dir`, warm-fills it
/// and checkpoints it there.
fn setup(seed: u64, mix: Mix, dir: &Path, out: &mut Outcome) -> Result<Setup, String> {
    let started = Instant::now();
    let sessions = nasa_sessions(seed, TRACE_DAYS);
    let opts = options();
    let warm = warm_count(&sessions, opts.serve.window)
        .ok_or("the trace is too short to fill every shard's window")?;
    let warm_lines: Vec<String> = sessions[..warm]
        .iter()
        .enumerate()
        .map(|(i, s)| format!("train @{} {}", client(i), s.join(",")))
        .collect();
    let lines = timed_lines(&sessions, warm, mix);
    drop(sessions);
    let _ = std::fs::remove_dir_all(dir);
    let mut responses: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let heap_before = live_bytes();
    let mut server = ShardedServer::open(&dir.display().to_string(), PbConfig::default(), opts)
        .map_err(|e| format!("open: {e}"))?;
    let build_started = Instant::now();
    reset_peak_bytes();
    for chunk in warm_lines.chunks(MAX_BATCH) {
        server
            .handle_batch(chunk, &mut responses)
            .map_err(|e| format!("warm-fill: {e}"))?;
        let errors = responses.iter().filter(|r| !r.starts_with("ok")).count();
        out.count(chunk.len(), errors, "warm-fill train answered err");
    }
    responses.clear();
    let resident = live_bytes().saturating_sub(heap_before);
    let full = server.total_window() == SHARDS * opts.serve.window;
    out.check(full, || {
        format!("warm-fill left windows short: {}", server.total_window())
    });
    server
        .handle_batch(&["checkpoint".to_owned()], &mut responses)
        .map_err(|e| format!("checkpoint: {e}"))?;
    let build_s = secs(build_started.elapsed());
    let build_peak = peak_bytes().saturating_sub(heap_before);
    let reply = responses.first().cloned().unwrap_or_default();
    let snapshot_bytes = reply
        .strip_prefix("ok checkpointed ")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok());
    out.check(snapshot_bytes.is_some(), || {
        format!("checkpoint failed: {}", reply.trim())
    });
    drop(server);
    Ok(Setup {
        lines,
        setup_s: secs(started.elapsed()),
        build_s,
        build_peak_bytes: build_peak as f64,
        resident_bytes: resident as f64,
        snapshot_bytes: snapshot_bytes.unwrap_or(0.0),
    })
}

/// Reopens the warm server from its checkpoint; returns it and the time
/// the open took.
fn reopen(dir: &Path) -> Result<(ShardedServer, f64), String> {
    let started = Instant::now();
    let server = ShardedServer::open(&dir.display().to_string(), PbConfig::default(), options())
        .map_err(|e| format!("reopen: {e}"))?;
    let took = secs(started.elapsed());
    if server.recovery_label() != "current" {
        return Err(format!(
            "reopen recovered {:?}, not the warm checkpoint",
            server.recovery_label()
        ));
    }
    Ok((server, took))
}

/// One dispatched batch of the open loop.
struct Batch {
    first: usize,
    len: usize,
    /// Its `sharded.dispatch` span (ROOT when untraced).
    span: u32,
}

struct OpenLoop {
    /// Scheduled arrival → batch return, per request.
    latency: Vec<Duration>,
    /// Scheduled arrival → dispatch, per request.
    queue: Vec<Duration>,
    responses: Vec<String>,
    batches: Vec<Batch>,
    dispatch: Vec<Duration>,
    gen_late: Vec<Duration>,
    /// When the last request completed, from the start.
    done: Duration,
}

/// Sends line `i` at `arrivals[i]`, each batch holding whatever had
/// arrived when the server became free.
fn open_loop(
    server: &mut ShardedServer,
    lines: &[&Line],
    arrivals: &[Duration],
    mut tracer: Option<&mut Tracer>,
) -> Result<OpenLoop, String> {
    let n = arrivals.len();
    let mut run = OpenLoop {
        latency: Vec::with_capacity(n),
        queue: Vec::with_capacity(n),
        responses: Vec::with_capacity(n),
        batches: Vec::new(),
        dispatch: Vec::new(),
        gen_late: Vec::new(),
        done: Duration::ZERO,
    };
    let mut batch: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let mut responses: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let mut next = 0usize;
    let start = Instant::now();
    while next < n {
        let now = start.elapsed();
        if arrivals[next] > now {
            // Spin, never sleep: a sleeping generator wakes up to
            // milliseconds late on a busy virtual machine, and requests
            // after a sleep were served slower (serve-mixed predict p50
            // ~33 us sleeping, ~22 us spinning).
            std::hint::spin_loop();
            continue;
        }
        batch.clear();
        let first = next;
        while next < n && batch.len() < MAX_BATCH && arrivals[next] <= start.elapsed() {
            batch.push(lines[next].text.clone());
            next += 1;
        }
        let d0 = Instant::now();
        server
            .handle_batch(&batch, &mut responses)
            .map_err(|e| format!("handle_batch: {e}"))?;
        let d1 = Instant::now();
        if responses.len() != batch.len() {
            return Err(format!(
                "{} responses to a batch of {}",
                responses.len(),
                batch.len()
            ));
        }
        let dispatched = d0 - start;
        let done = d1 - start;
        run.gen_late
            .push(dispatched.saturating_sub(run.done.max(arrivals[first])));
        run.dispatch.push(d1 - d0);
        let span = match tracer.as_deref_mut() {
            Some(t) => {
                let span = t.record("sharded.dispatch", d0, d1, ROOT, run.batches.len() as u64);
                for (i, &a) in arrivals[first..next].iter().enumerate() {
                    t.record(
                        "sharded.queue_wait",
                        start + a,
                        d0,
                        span,
                        (first + i) as u64,
                    );
                }
                span
            }
            None => ROOT,
        };
        for &a in &arrivals[first..next] {
            run.latency.push(done - a);
            run.queue.push(dispatched.saturating_sub(a));
        }
        run.batches.push(Batch {
            first,
            len: batch.len(),
            span,
        });
        run.responses.append(&mut responses);
        run.done = done;
    }
    Ok(run)
}

/// What the closed loop measured.
struct ClosedLoop {
    line_hashes: Vec<u64>,
    /// Summed `handle_batch` time.
    busy: Duration,
    errors: usize,
    hint_hits: usize,
    predicts: usize,
}

/// Sends the lines in back-to-back batches.
fn closed_loop(
    server: &mut ShardedServer,
    lines: &[&Line],
    mut tracer: Option<&mut Tracer>,
) -> Result<ClosedLoop, String> {
    let count = lines.len();
    let mut run = ClosedLoop {
        line_hashes: Vec::with_capacity(count),
        busy: Duration::ZERO,
        errors: 0,
        hint_hits: 0,
        predicts: 0,
    };
    let mut batch: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let mut responses: Vec<String> = Vec::with_capacity(MAX_BATCH);
    let mut first = 0usize;
    while first < count {
        let end = (first + MAX_BATCH).min(count);
        batch.clear();
        batch.extend(lines[first..end].iter().map(|l| l.text.clone()));
        let d0 = Instant::now();
        server
            .handle_batch(&batch, &mut responses)
            .map_err(|e| format!("handle_batch: {e}"))?;
        let d1 = Instant::now();
        run.busy += d1 - d0;
        if let Some(t) = tracer.as_deref_mut() {
            t.record("sharded.dispatch.closed", d0, d1, ROOT, first as u64);
        }
        if responses.len() != batch.len() {
            return Err(format!(
                "{} responses to a batch of {}",
                responses.len(),
                batch.len()
            ));
        }
        for (i, r) in (first..end).zip(&responses) {
            run.line_hashes.push(hash_str(r));
            if !r.starts_with("ok") {
                run.errors += 1;
            }
            let line = lines[i];
            if line.kind == Kind::Predict {
                run.predicts += 1;
                run.hint_hits += usize::from(hints_contain(r, &line.next).0);
            }
        }
        first = end;
    }
    Ok(run)
}

/// Latency summaries and validity checks of one open-loop phase.
struct OpenSummary {
    /// Sorted predict and train latencies, nanoseconds.
    predict: Vec<f64>,
    train: Vec<f64>,
    /// Predicts answered `ok` within [`SLO`].
    met: usize,
    digest: u64,
    /// Queue waits of the first and the last tenth of the requests, ns.
    queue_head: Vec<f64>,
    queue_tail: Vec<f64>,
}

impl OpenSummary {
    fn p50_us(&self) -> f64 {
        percentile(&self.predict, 0.5) / 1e3
    }
}

fn summarize_open(
    run: &OpenLoop,
    lines: &[&Line],
    arrivals: &[Duration],
    out: &mut Outcome,
) -> OpenSummary {
    let mut predict = Vec::new();
    let mut train = Vec::new();
    let mut met = 0usize;
    let mut errors = 0usize;
    let mut hashes = Vec::with_capacity(run.responses.len());
    for (i, r) in run.responses.iter().enumerate() {
        hashes.push(hash_str(r));
        let ok = r.starts_with("ok");
        errors += usize::from(!ok);
        match lines[i].kind {
            Kind::Predict => {
                predict.push(ns(run.latency[i]));
                met += usize::from(ok && run.latency[i] <= SLO);
            }
            Kind::Train => train.push(ns(run.latency[i])),
        }
    }
    out.count(
        run.responses.len(),
        errors,
        "open-loop request answered err",
    );
    let missing = arrivals.len() - run.responses.len();
    out.count(missing, missing, "open-loop request got no response");
    // Keep the loop honest: it must complete at the offered rate and
    // its queue must not grow from the first tenth to the last.
    let offered =
        arrivals.len() as f64 / secs(*arrivals.last().unwrap_or(&Duration::ZERO)).max(1e-9);
    let achieved = run.responses.len() as f64 / secs(run.done).max(1e-9);
    out.check(achieved >= MIN_ACHIEVED_SHARE * offered, || {
        format!("achieved {achieved:.0} req/s below the offered {offered:.0} req/s")
    });
    let tenth = run.queue.len() / 10;
    let waits = |d: &[Duration]| d.iter().map(|&d| ns(d)).collect::<Vec<_>>();
    OpenSummary {
        predict: sorted(&predict),
        train: sorted(&train),
        met,
        digest: digest(&hashes),
        queue_head: waits(&run.queue[..tenth]),
        queue_tail: waits(&run.queue[run.queue.len() - tenth..]),
    }
}

/// Checks for a growing backlog: the median queue wait over the last
/// tenth of every block must stay below 3x that over the first tenth plus
/// 1 ms. Pooling the blocks' tenths keeps one host stall late in a block
/// from failing the run; a backlog that really grows does so in every
/// block.
fn check_backlog(head: &[f64], tail: &[f64], out: &mut Outcome) {
    let (head, tail) = (median(head), median(tail));
    out.check(tail <= 3.0 * head + 1e6, || {
        format!(
            "queue wait grew from {:.0} us to {:.0} us: a growing backlog",
            head / 1e3,
            tail / 1e3
        )
    });
}

/// Notes the pooled latency distribution of one request kind.
fn note_latency(kind: &str, sorted_ns: &[f64], out: &mut Outcome) {
    if sorted_ns.is_empty() {
        return;
    }
    let (label, q) = supported_tail(sorted_ns.len());
    let at = |q: f64| percentile(sorted_ns, q) / 1e3;
    out.note(format!(
        "{kind} latency n={} p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, {label} {:.1} us \
         (the highest percentile with >=10 samples beyond it)",
        sorted_ns.len(),
        at(0.5),
        at(0.95),
        at(0.99),
        at(q),
    ));
}

/// Checks the closed loop's errors and digest.
fn summarize_closed(run: &ClosedLoop, open_digest: u64, out: &mut Outcome) {
    out.count(
        run.line_hashes.len(),
        run.errors,
        "closed-loop request answered err",
    );
    let closed_digest = digest(&run.line_hashes);
    out.check(closed_digest == open_digest, || {
        format!("closed-loop digest {closed_digest:016x} != open-loop digest {open_digest:016x}")
    });
}

fn check_published(server: &ShardedServer, out: &mut Outcome) {
    let rejected = server.publish_rejected();
    out.count(
        1,
        usize::from(rejected > 0),
        "rebuilds failed the publish audit",
    );
}

pub fn run(
    mix: Mix,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("serve");
    let opts = options();
    out.note(format!(
        "shards {SHARDS}, dispatch threads {}, clients {CLIENTS}, window {}, rebuild every {}, top {}, \
         checkpoint and metrics flush off in the timed phase, offered rate {} req/s, {BLOCKS} blocks",
        opts.threads,
        opts.serve.window,
        opts.serve.rebuild_every,
        opts.serve.top,
        mix.rate()
    ));
    let setups = if traced { 1 } else { SETUPS };
    let mut samples = Vec::new();
    for _ in 0..setups {
        samples.push(setup(seed, mix, &dir, out)?);
    }
    let pick = |f: fn(&Setup) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let setup_s = pick(|s| s.setup_s);
    let build_s = pick(|s| s.build_s);
    let build_peak_mb = pick(|s| s.build_peak_bytes) / 1e6;
    let resident = pick(|s| s.resident_bytes);
    let snapshot_bytes = pick(|s| s.snapshot_bytes);
    let lines = samples.pop().map(|s| s.lines).unwrap_or_default();
    drop(samples);
    if lines.is_empty() {
        return Err("no timed lines".to_owned());
    }

    // Each block reopens the warm server and sends the next stretch of
    // the session stream on its own Poisson schedule, open-loop and then
    // closed-loop. Every figure pools the blocks; the medians of single
    // blocks swing with how their few rebuild stalls fall.
    let mut load = Vec::new();
    let (mut closed_lines, mut closed_busy) = (0usize, Duration::ZERO);
    let mut train_p99 = Vec::new();
    let (mut queue_head, mut queue_tail) = (Vec::new(), Vec::new());
    let (mut predicts, mut trains, mut met, mut hints, mut hint_hits) =
        (Vec::new(), Vec::new(), 0, 0, 0);
    let mut sent = 0usize;
    let mut layers = if traced {
        Some(Layers::new(&dir, out)?)
    } else {
        None
    };
    for b in 0..BLOCKS {
        let schedule = arrivals(
            mix.rate(),
            seconds / BLOCKS as f64,
            seed.wrapping_mul(BLOCKS as u64).wrapping_add(b as u64),
        );
        let block: Vec<&Line> = (0..schedule.len())
            .map(|i| &lines[(sent + i) % lines.len()])
            .collect();
        sent += block.len();
        let (mut server, t) = reopen(&dir)?;
        load.push(t);
        let open = open_loop(&mut server, &block, &schedule, None)?;
        check_published(&server, out);
        drop(server);
        let summary = summarize_open(&open, &block, &schedule, out);
        drop(open);
        let (mut server, t) = reopen(&dir)?;
        load.push(t);
        let closed = closed_loop(&mut server, &block, None)?;
        check_published(&server, out);
        drop(server);
        summarize_closed(&closed, summary.digest, out);
        if let Some(layers) = layers.as_mut() {
            layers.block(&dir, &block, &schedule, &summary, &closed, out)?;
        }
        closed_lines += closed.line_hashes.len();
        closed_busy += closed.busy;
        if !summary.train.is_empty() {
            train_p99.push(percentile(&summary.train, 0.99) / 1e3);
        }
        met += summary.met;
        queue_head.extend(summary.queue_head);
        queue_tail.extend(summary.queue_tail);
        predicts.extend(summary.predict);
        trains.extend(summary.train);
        hints += closed.predicts;
        hint_hits += closed.hint_hits;
    }
    check_backlog(&queue_head, &queue_tail, out);
    while load.len() < LOADS {
        load.push(reopen(&dir)?.1);
    }
    out.note(format!(
        "{sent} lines sent open-loop over {seconds} s and again closed-loop, from {} distinct lines",
        lines.len()
    ));
    let predicts = sorted(&predicts);
    let trains = sorted(&trains);
    note_latency("predict", &predicts, out);
    note_latency("train", &trains, out);

    out.e2e(
        "predict_slo_ratio",
        met as f64 / predicts.len().max(1) as f64,
        predicts.len(),
    );
    out.e2e(
        "capacity_rps",
        closed_lines as f64 / secs(closed_busy).max(1e-12),
        closed_lines,
    );
    out.e2e(
        "hint_hit_ratio",
        hint_hits as f64 / hints.max(1) as f64,
        hints,
    );
    out.e2e("resident_bytes", resident, setups);
    out.e2e("build_s", build_s, setups);
    out.e2e("load_s", median(&load), load.len());
    out.e2e("build_peak_mb", build_peak_mb, setups);
    out.e2e("snapshot_bytes", snapshot_bytes, setups);
    out.e2e("setup_s", setup_s, setups);
    if !train_p99.is_empty() {
        out.info("train_p99_us", median(&train_p99), "us", trains.len());
    }
    if let Some(layers) = layers {
        out.layer(
            "sharded.predict_latency_us.p50",
            percentile(&predicts, 0.5) / 1e3,
        );
        out.layer(
            "sharded.predict_latency_us.p99",
            percentile(&predicts, 0.99) / 1e3,
        );
        layers.finish(&dir, out)?;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

// ------------------------------------------------------------ the twin

/// One shard's twin: the writer state `ServeSession` keeps for a
/// `train`, plus the shard's publication pair.
struct Twin {
    urls: Interner,
    live: LiveEval,
    online: OnlinePbPpm,
    rebuild_every: usize,
    publisher: EpochPublisher<PublishedModel>,
    reader: EpochReader<PublishedModel>,
    published_rebuilds: u64,
    rejected: u64,
}

impl Twin {
    /// Restores the twin from the shard's checkpoint. Its own rebuild
    /// cadence is disabled so the benchmark can time each rebuild on its
    /// own; [`Twin::train`] rebuilds on the shard's schedule instead.
    fn open(shard_dir: &Path, opts: &ServeOptions) -> Result<Self, String> {
        let store = SnapshotStore::open(shard_dir).map_err(|e| e.to_string())?;
        let (file, _) = store
            .recover()
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("{}: no checkpoint", shard_dir.display()))?;
        let ModelImage::OnlinePb(snap) = &file.model else {
            return Err("checkpoint holds no online model".to_owned());
        };
        let mut snap = snap.clone();
        let rebuild_every = snap.rebuild_every;
        snap.rebuild_every = usize::MAX;
        let online = OnlinePbPpm::from_snapshot(&snap).map_err(|e| e.to_string())?;
        let urls = file.interner();
        let live = LiveEval::new(LiveEvalConfig {
            eval: EvalConfig {
                k: opts.top.max(1),
                ..EvalConfig::default()
            },
            window: opts.eval_window,
            drift_fraction: opts.drift_fraction,
            ..LiveEvalConfig::default()
        });
        let publisher = EpochPublisher::new(PublishedModel {
            rebuilds: online.rebuild_count(),
            urls: urls.clone(),
            model: online.current().cloned(),
        });
        let reader = publisher.reader();
        Ok(Self {
            published_rebuilds: online.rebuild_count(),
            urls,
            live,
            online,
            rebuild_every,
            publisher,
            reader,
            rejected: 0,
        })
    }

    /// A `train`: intern, score, append, rebuild when due, then audit and
    /// publish a fresh rebuild. Returns the rebuild/audit/publish time.
    fn train(&mut self, payload: &str, t: &mut Tracer, parent: u32, req: u64) -> Duration {
        let span = t.begin("session.train", parent, req);
        let session: Vec<UrlId> = payload
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| self.urls.intern(s))
            .collect();
        let grades = self.online.current().map(PbPpm::popularity);
        self.live.observe_session(&self.online, grades, &session);
        self.online.train_session(&session);
        let mut stall = Duration::ZERO;
        if self.online.since_rebuild() >= self.rebuild_every {
            let started = Instant::now();
            t.time("pb_online.rebuild", span, req, || self.online.rebuild());
            stall += started.elapsed();
        }
        t.end(span);
        let rebuilds = self.online.rebuild_count();
        if rebuilds == self.published_rebuilds {
            return stall;
        }
        self.published_rebuilds = rebuilds;
        let started = Instant::now();
        let online = &self.online;
        let url_count = self.urls.len();
        let (report, _) = t.time("verify.audit", parent, req, || {
            pbppm_core::verify_model_with_urls(&ModelRef::OnlinePb(online), Some(url_count))
        });
        if report.is_clean() {
            let urls = &self.urls;
            let (published, _) = t.time("publish.clone", parent, req, || PublishedModel {
                rebuilds,
                urls: urls.clone(),
                model: online.current().cloned(),
            });
            let publisher = &self.publisher;
            t.time("publish.swap", parent, req, || publisher.publish(published));
        } else {
            self.rejected += 1;
        }
        stall + started.elapsed()
    }

    /// A `predict` through the reader path, plus a twin rank call.
    fn predict(
        &mut self,
        payload: &str,
        top_n: usize,
        t: &mut Tracer,
        parent: u32,
        req: u64,
    ) -> (String, Option<MatchStrategy>) {
        let published = Arc::clone(self.reader.current());
        let mut buf = Vec::new();
        let mut top = Vec::new();
        let (outcome, span) = t.time("predict.reader", parent, req, || {
            predict_published(&published, top_n, payload, &mut buf, &mut top)
        });
        let mut response = String::from_utf8_lossy(&buf).into_owned();
        if !matches!(outcome, Ok(Ok(()))) {
            response = format!("err twin predict failed: {outcome:?}");
        }
        let strategy = published.model.as_ref().and_then(Predictor::match_strategy);
        if let Some(model) = &published.model {
            let context: Vec<UrlId> = payload
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .filter_map(|s| published.urls.get(s))
                .collect();
            let mut preds: Vec<Prediction> = Vec::new();
            let mut usage = PredictUsage::default();
            t.time("predict.rank", span, req, || {
                model.predict_ro(&context, &mut preds, &mut usage);
            });
        }
        (response, strategy)
    }
}

/// Splits `train @c7 /a,/b` into (command, client, payload).
fn split_line(line: &str) -> (&str, &str, &str) {
    let (cmd, rest) = line.split_once(' ').unwrap_or((line, ""));
    match rest.strip_prefix('@') {
        Some(tagged) => match tagged.split_once(' ') {
            Some((client, payload)) => (cmd, client, payload),
            None => (cmd, tagged, ""),
        },
        None => (cmd, "", rest),
    }
}

/// Storage of the twins' published models: the self-reported components
/// beside the allocator's measurement.
fn storage(twins: &[Twin], out: &mut Outcome) {
    let mut sum = [0.0f64; 8];
    for twin in twins {
        let published = twin.publisher.current();
        if let Some(m) = &published.model {
            let stats = m.stats();
            sum[0] += stats.nodes as f64;
            sum[1] += stats.memory_bytes as f64;
            sum[2] += m.frozen().map_or(0, pbppm_core::FrozenTree::heap_bytes) as f64;
            sum[3] += stats.index_bytes as f64;
            sum[6] += crate::heap_of(|| m.clone());
            sum[7] += stats.total_bytes() as f64;
        }
        sum[4] += crate::heap_of(|| published.urls.clone());
        sum[5] += crate::heap_of(|| twin.online.to_snapshot().window);
    }
    crate::storage_layers(sum, out);
}

/// Everything the twin replay accumulates.
#[derive(Default)]
struct Replay {
    /// Per open-loop batch: rebuild + audit + publish time on its shards.
    stall: Vec<Duration>,
    mismatches: usize,
    predicts: usize,
    scan: usize,
    index: usize,
    hints: Vec<f64>,
}

fn replay(
    twins: &mut [Twin],
    lines: &[&Line],
    open: &OpenLoop,
    top_n: usize,
    t: &mut Tracer,
) -> Replay {
    let mut r = Replay::default();
    for b in &open.batches {
        let mut stall = Duration::ZERO;
        for (i, line) in lines.iter().enumerate().skip(b.first).take(b.len) {
            let (cmd, client, payload) = split_line(&line.text);
            let twin = &mut twins[shard_of(client, SHARDS)];
            let req = i as u64;
            if cmd == "train" {
                stall += twin.train(payload, t, b.span, req);
            } else {
                let (response, strategy) = twin.predict(payload, top_n, t, b.span, req);
                r.predicts += 1;
                r.mismatches += usize::from(response != open.responses[i]);
                match strategy {
                    Some(MatchStrategy::FrozenScan) => r.scan += 1,
                    Some(_) => r.index += 1,
                    None => {}
                }
                r.hints.push(hints_contain(&response, "").1 as f64);
            }
        }
        r.stall.push(stall);
    }
    r
}

/// Whether the twin and the server publish byte-identical models.
fn same_published(twin: &Twin, server: &ShardedServer, k: usize) -> bool {
    let encode = |p: &PublishedModel| -> Option<Vec<u8>> {
        let model = p.model.as_ref()?;
        let file = SnapshotFile {
            urls: p.urls.iter().map(|(_, s)| s.to_owned()).collect(),
            model: ModelImage::Pb(model.to_snapshot()),
        };
        Some(file.encode())
    };
    let ours = encode(&twin.publisher.current());
    let theirs = encode(server.shard_reader(k).current());
    ours.is_some() && ours == theirs
}

/// The traced run's per-layer accumulator, fed block by block.
struct Layers {
    tracer: Tracer,
    queue: Vec<f64>,
    dispatch: Vec<f64>,
    gen_late: Vec<f64>,
    /// Per open-loop batch: rebuild + audit + publish time, aligned with
    /// `dispatch`.
    stall: Vec<f64>,
    requests: usize,
    rejected: u64,
    scan: usize,
    index: usize,
    hints: Vec<f64>,
    train_p99: Vec<f64>,
    queue_head: Vec<f64>,
    queue_tail: Vec<f64>,
    overhead_p50: Vec<f64>,
    overhead_capacity: Vec<f64>,
}

impl Layers {
    /// Starts the accumulator; records the storage of the warm models.
    fn new(dir: &Path, out: &mut Outcome) -> Result<Self, String> {
        storage(&open_twins(dir)?, out);
        Ok(Self {
            tracer: Tracer::new(),
            queue: Vec::new(),
            dispatch: Vec::new(),
            gen_late: Vec::new(),
            stall: Vec::new(),
            requests: 0,
            rejected: 0,
            scan: 0,
            index: 0,
            hints: Vec::new(),
            train_p99: Vec::new(),
            queue_head: Vec::new(),
            queue_tail: Vec::new(),
            overhead_p50: Vec::new(),
            overhead_capacity: Vec::new(),
        })
    }

    /// Repeats one block traced and replays it on fresh twins.
    fn block(
        &mut self,
        dir: &Path,
        lines: &[&Line],
        schedule: &[Duration],
        untraced: &OpenSummary,
        untraced_closed: &ClosedLoop,
        out: &mut Outcome,
    ) -> Result<(), String> {
        let t = &mut self.tracer;
        let (mut server, _) = reopen(dir)?;
        let open = open_loop(&mut server, lines, schedule, Some(&mut *t))?;
        check_published(&server, out);
        let summary = summarize_open(&open, lines, schedule, out);
        out.check(summary.digest == untraced.digest, || {
            "traced open-loop digest differs from the untraced one".to_owned()
        });
        {
            let (mut closed_server, _) = reopen(dir)?;
            let closed = closed_loop(&mut closed_server, lines, Some(&mut *t))?;
            summarize_closed(&closed, summary.digest, out);
            let rate = |c: &ClosedLoop| c.line_hashes.len() as f64 / secs(c.busy).max(1e-12);
            self.overhead_capacity
                .push(rate(&closed) - rate(untraced_closed));
        }
        self.overhead_p50.push(summary.p50_us() - untraced.p50_us());
        if !summary.train.is_empty() {
            self.train_p99.push(percentile(&summary.train, 0.99) / 1e3);
        }
        self.queue_head.extend(&summary.queue_head);
        self.queue_tail.extend(&summary.queue_tail);

        let mut twins = open_twins(dir)?;
        let r = replay(&mut twins, lines, &open, options().serve.top, t);
        out.count(
            r.predicts,
            r.mismatches,
            "twin predict answer differs from the server's",
        );
        for (k, twin) in twins.iter().enumerate() {
            out.check(same_published(twin, &server, k), || {
                format!("shard {k}: twin and server published different models")
            });
        }
        self.rejected += twins.iter().map(|tw| tw.rejected).sum::<u64>();
        self.queue.extend(open.queue.iter().map(|&d| ns(d)));
        self.dispatch.extend(open.dispatch.iter().map(|&d| ns(d)));
        self.gen_late.extend(open.gen_late.iter().map(|&d| ns(d)));
        self.stall.extend(r.stall.iter().map(|&d| ns(d)));
        self.requests += open.latency.len();
        self.scan += r.scan;
        self.index += r.index;
        self.hints.extend(r.hints);
        Ok(())
    }

    fn finish(self, dir: &Path, out: &mut Outcome) -> Result<(), String> {
        check_backlog(&self.queue_head, &self.queue_tail, out);
        let us = |v: &[f64], q: f64| percentile(&sorted(v), q) / 1e3;
        let ms = |v: &[f64], q: f64| percentile(&sorted(v), q) / 1e6;
        out.layer("sharded.queue_wait_us.p50", us(&self.queue, 0.5));
        out.layer("sharded.queue_wait_us.p99", us(&self.queue, 0.99));
        out.layer("sharded.dispatch_us.p50", us(&self.dispatch, 0.5));
        out.layer("sharded.dispatch_us.p99", us(&self.dispatch, 0.99));
        out.layer(
            "sharded.batch_depth.mean",
            self.requests as f64 / self.dispatch.len().max(1) as f64,
        );
        out.layer("sharded.gen_late_us.p99", us(&self.gen_late, 0.99));
        // How much of the slowest tenth of dispatch time the writer layers'
        // spans account for (a batch's parallel shards can overlap, so each
        // batch's share is capped at its own duration).
        let p90 = percentile(&sorted(&self.dispatch), 0.9);
        let (mut slow, mut explained) = (0.0, 0.0);
        for (&d, &s) in self.dispatch.iter().zip(&self.stall) {
            if d > p90 {
                slow += d;
                explained += s.min(d);
            }
        }
        out.layer("sharded.slow_dispatch_explained", explained / slow.max(1.0));

        let selfs = self.tracer.self_times_by_name();
        let get = |name: &str| selfs.get(name).cloned().unwrap_or_default();
        let train = get("session.train");
        out.layer("session.trains", train.len() as f64);
        out.layer("session.train_us.p50", us(&train, 0.5));
        out.layer("session.train_us.p99", us(&train, 0.99));
        out.layer("session.train_latency_p99_us", median(&self.train_p99));
        let rebuild = get("pb_online.rebuild");
        out.layer("pb_online.rebuilds", rebuild.len() as f64);
        out.layer("pb_online.rebuild_ms.p50", ms(&rebuild, 0.5));
        out.layer("pb_online.rebuild_ms.p99", ms(&rebuild, 0.99));
        let audit = get("verify.audit");
        out.layer("verify.audits", audit.len() as f64);
        out.layer("verify.rejected", self.rejected as f64);
        out.layer("verify.audit_ms.p50", ms(&audit, 0.5));
        out.layer("verify.audit_ms.p99", ms(&audit, 0.99));
        let clone = get("publish.clone");
        out.layer("publish.publishes", clone.len() as f64);
        out.layer("publish.clone_ms.p50", ms(&clone, 0.5));
        out.layer("publish.clone_ms.p99", ms(&clone, 0.99));
        out.layer("publish.swap_us.p99", us(&get("publish.swap"), 0.99));
        crate::predict_layers(
            &get("predict.rank"),
            &get("predict.reader"),
            self.scan,
            self.index,
            &self.hints,
            out,
        );
        out.layer("trace.overhead.predict_p50_us", median(&self.overhead_p50));
        out.layer(
            "trace.overhead.capacity_rps",
            median(&self.overhead_capacity),
        );
        let path = dir
            .parent()
            .unwrap_or(dir)
            .join(format!("spans-{}.tsv", out.workload));
        self.tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!(
            "{} spans written to {}",
            self.tracer.spans().len(),
            path.display()
        ));
        Ok(())
    }
}

/// One twin per shard, restored from the warm checkpoint.
fn open_twins(dir: &Path) -> Result<Vec<Twin>, String> {
    let opts = options();
    (0..SHARDS)
        .map(|k| Twin::open(&dir.join(format!("shard-{k:03}")), &opts.serve))
        .collect()
}
