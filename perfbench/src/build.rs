//! The build workload: `pbppm save`'s path from a 31-day NASA-like CLF
//! log to a `.pbss` snapshot, then the recovery path back to a servable
//! model, then closed-loop predicts on that model through the serve
//! reader path.
//!
//! Set-up writes the log (the paper's July 1995 span). Each timed
//! iteration runs:
//!
//! * build — chunked ingest on every core → sessionize → popularity
//!   count → `train_sessions` → `finalize` → snapshot image →
//!   `write_atomic` (encode, write, fsync, rename);
//! * load — read → decode → interner and model restore → `verify_model`
//!   audit → [`PublishedModel`];
//! * predicts — every 1–4-click prefix of a spread of the log's sessions,
//!   one `predict_published` call each.
//!
//! Checks: the snapshot decodes and re-encodes byte-identically, its
//! audit is clean, and the loaded model answers a fixed set of contexts
//! exactly as the built one does.

use crate::spans::{maybe, Tracer, ROOT};
use crate::stats::{median, percentile, sorted, supported_tail};
use crate::workload::{from_start_day, hints_contain, nasa_trace, prefixes, write_clf_log};
use crate::Outcome;
use pbppm_core::snapshot::{ModelImage, SnapshotFile};
use pbppm_core::{
    MatchStrategy, ModelRef, PbConfig, PbPpm, PopularityBuilder, PredictUsage, Predictor, UrlId,
};
use pbppm_obs::alloc::{live_bytes, peak_bytes, reset_peak_bytes};
use pbppm_serve::sharded::predict_published;
use pbppm_serve::PublishedModel;
use pbppm_trace::ingest::{trace_from_clf_path, IngestConfig};
use pbppm_trace::{sessionize, SessionizerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Requests in the log: about 31 days of the NASA-like site, the paper's
/// July 1995 span. A fixed count keeps the work equal across start days.
const LINES: usize = 970_000;
/// Days generated from the start day, enough for [`LINES`] requests.
const DAYS: usize = 36;
/// Log writes per run; `setup_s` reports their median.
const SETUPS: usize = 3;
/// Timed iterations at least, however short `--seconds` is. One more
/// runs first as a warm-up and is checked but not reported.
const MIN_ITERATIONS: usize = 3;
/// Predict contexts per iteration.
const PREDICTS: usize = 20_000;
/// Contexts whose answers must match between built and loaded model.
const FIXED_CONTEXTS: usize = 500;
/// Hints per predict, as `pbppm serve` answers by default.
const TOP: usize = 10;
const SLO: Duration = Duration::from_millis(1);

/// A built model with what the checks and predicts need from the log.
struct Built {
    model: PbPpm,
    urls: pbppm_core::Interner,
    /// Predict payloads ("/a,/b") with the session's actual next URL.
    contexts: Vec<(String, String)>,
    lines: usize,
    rejected: usize,
    sessions: usize,
    parse_peak: f64,
    peak: f64,
    /// Log on disk → snapshot written, seconds.
    wall: f64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Log on disk → `.pbss` written.
fn build(log: &Path, out_path: &Path, mut t: Option<&mut Tracer>) -> Result<Built, String> {
    let threads = crate::cores();
    let started = Instant::now();
    let heap_before = live_bytes();
    reset_peak_bytes();
    let root = match t.as_deref_mut() {
        Some(t) => t.begin("build", ROOT, 0),
        None => ROOT,
    };
    let cfg = IngestConfig {
        threads,
        ..IngestConfig::default()
    };
    let (parsed, _) = maybe(&mut t, "ingest.parse", root, 0, || {
        trace_from_clf_path("access.log", log, &cfg)
    });
    let (trace, stats) = parsed.map_err(|e| format!("ingest: {e}"))?;
    let parse_peak = peak_bytes().saturating_sub(heap_before) as f64;
    let (urls, _) = maybe(&mut t, "sessionize", root, 0, || {
        sessionize(&trace.requests, &SessionizerConfig::default())
            .iter()
            .map(|s| s.views.iter().map(|v| v.url).collect::<Vec<UrlId>>())
            .collect::<Vec<_>>()
    });
    let (counts, _) = maybe(&mut t, "popularity.count", root, 0, || {
        PopularityBuilder::count_sessions(&urls, threads).build()
    });
    let (mut model, _) = maybe(&mut t, "pb.train", root, 0, || {
        let mut m = PbPpm::new(counts, PbConfig::default());
        m.train_sessions(&urls, threads);
        m
    });
    maybe(&mut t, "pb.finalize", root, 0, || model.finalize());
    let (file, _) = maybe(&mut t, "snapshot.image", root, 0, || SnapshotFile {
        urls: trace.urls.iter().map(|(_, s)| s.to_owned()).collect(),
        model: ModelImage::Pb(model.to_snapshot()),
    });
    let (written, write_span) = maybe(&mut t, "snapshot.write", root, 0, || {
        file.write_atomic(out_path)
    });
    written.map_err(|e| format!("write: {e}"))?;
    let wall = secs(started.elapsed());
    if let Some(t) = t {
        t.end(root);
        // `write_atomic` encodes internally; time the encode on a twin
        // call so the write span's self time is the disk work alone.
        t.time("snapshot.encode", write_span, 0, || file.encode());
    }
    let peak = peak_bytes().saturating_sub(heap_before) as f64;
    drop(file);

    // Predict contexts, spread evenly over the month's sessions.
    let per_session = 2;
    let stride = (urls.len() * per_session / PREDICTS).max(1);
    let mut contexts = Vec::with_capacity(PREDICTS);
    for s in urls.iter().step_by(stride) {
        let names: Vec<String> = s
            .iter()
            .map(|&u| trace.urls.resolve(u).unwrap_or("/").to_owned())
            .collect();
        for (ctx, next) in prefixes(&names) {
            contexts.push((ctx.join(","), next.to_owned()));
        }
        if contexts.len() >= PREDICTS {
            break;
        }
    }
    contexts.truncate(PREDICTS);
    Ok(Built {
        model,
        urls: trace.urls,
        contexts,
        lines: stats.accepted + stats.malformed + stats.filtered,
        rejected: stats.malformed + stats.filtered,
        sessions: urls.len(),
        parse_peak,
        peak,
        wall,
    })
}

/// `.pbss` → audited, servable model.
fn load(
    path: &Path,
    mut t: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<PublishedModel, String> {
    let root = match t.as_deref_mut() {
        Some(t) => t.begin("load", ROOT, 0),
        None => ROOT,
    };
    let (file, read_span) = maybe(&mut t, "snapshot.read", root, 0, || {
        SnapshotFile::read(path)
    });
    let file = file.map_err(|e| format!("read: {e}"))?;
    let (restored, _) = maybe(&mut t, "pb.restore", root, 0, || {
        let urls = file.interner();
        match &file.model {
            ModelImage::Pb(snap) => PbPpm::from_snapshot(snap)
                .map(|m| (urls, m))
                .map_err(|e| e.to_string()),
            other => Err(format!("snapshot holds a {} model", other.kind_label())),
        }
    });
    let (urls, model) = restored?;
    drop(file);
    let (report, _) = maybe(&mut t, "verify.audit", root, 0, || {
        pbppm_core::verify_model_with_urls(&ModelRef::Pb(&model), Some(urls.len()))
    });
    out.check(report.is_clean(), || {
        format!("loaded model fails its audit:\n{report}")
    });
    let published = PublishedModel {
        rebuilds: 0,
        urls,
        model: Some(model),
    };
    if let Some(t) = t {
        t.end(root);
        // `SnapshotFile::read` decodes internally; time the decode on a
        // twin call so the read span's self time is the file read alone.
        let bytes = std::fs::read(path).map_err(|e| format!("read: {e}"))?;
        t.time("snapshot.decode", read_span, 0, || {
            SnapshotFile::decode(&bytes).is_ok()
        });
    }
    Ok(published)
}

fn answer(published: &PublishedModel, payload: &str) -> String {
    let mut buf = Vec::new();
    let mut top = Vec::new();
    match predict_published(published, TOP, payload, &mut buf, &mut top) {
        Ok(Ok(())) => String::from_utf8_lossy(&buf).into_owned(),
        other => format!("err predict failed: {other:?}"),
    }
}

/// The checks on one built and loaded pair.
fn check(
    built: &Built,
    snapshot: &Path,
    loaded: &PublishedModel,
    out: &mut Outcome,
) -> Result<(), String> {
    let bytes = std::fs::read(snapshot).map_err(|e| format!("read: {e}"))?;
    let reencoded = SnapshotFile::decode(&bytes).map(|f| f.encode());
    out.check(reencoded.as_ref().is_ok_and(|b| *b == bytes), || {
        "the snapshot does not re-encode byte-identically".to_owned()
    });
    let reference = PublishedModel {
        rebuilds: 0,
        urls: built.urls.clone(),
        model: Some(built.model.clone()),
    };
    let mut differ = 0usize;
    for (payload, _) in built.contexts.iter().take(FIXED_CONTEXTS) {
        differ += usize::from(answer(&reference, payload) != answer(loaded, payload));
    }
    out.count(
        FIXED_CONTEXTS.min(built.contexts.len()),
        differ,
        "loaded model answers differ from the built model",
    );
    Ok(())
}

/// What one pass of predicts on the loaded model measured.
#[derive(Default)]
struct Predicts {
    latency: Vec<f64>,
    busy: Duration,
    met: usize,
    hits: usize,
    errors: usize,
    hints: Vec<f64>,
    scan: usize,
    index: usize,
}

fn predict_pass(
    published: &PublishedModel,
    contexts: &[(String, String)],
    mut t: Option<&mut Tracer>,
) -> Predicts {
    let mut p = Predicts::default();
    let mut buf = Vec::new();
    let mut top = Vec::new();
    let strategy = published.model.as_ref().and_then(Predictor::match_strategy);
    for (i, (payload, next)) in contexts.iter().enumerate() {
        buf.clear();
        top.clear();
        let started = Instant::now();
        let (outcome, span) = maybe(&mut t, "predict.reader", ROOT, i as u64, || {
            predict_published(published, TOP, payload, &mut buf, &mut top)
        });
        let took = started.elapsed();
        p.busy += took;
        p.latency.push(took.as_nanos() as f64);
        let response = std::str::from_utf8(&buf).unwrap_or("");
        let ok = matches!(outcome, Ok(Ok(()))) && response.starts_with("ok");
        p.errors += usize::from(!ok);
        p.met += usize::from(ok && took <= SLO);
        let (hit, n) = hints_contain(response, next);
        p.hits += usize::from(hit);
        p.hints.push(n as f64);
        match strategy {
            Some(MatchStrategy::FrozenScan) => p.scan += 1,
            Some(_) => p.index += 1,
            None => {}
        }
        if let (Some(t), Some(model)) = (t.as_deref_mut(), &published.model) {
            let context: Vec<UrlId> = payload
                .split(',')
                .filter_map(|s| published.urls.get(s.trim()))
                .collect();
            let mut preds = Vec::new();
            let mut usage = PredictUsage::default();
            t.time("predict.rank", span, i as u64, || {
                model.predict_ro(&context, &mut preds, &mut usage);
            });
        }
    }
    p
}

/// Self time of each span under a root named `root`, per span name, and
/// the share of the root's duration those self times cover.
fn layer_split(
    t: &Tracer,
    root: &str,
) -> (
    std::collections::BTreeMap<&'static str, Vec<f64>>,
    Vec<f64>,
    Vec<f64>,
) {
    let spans = t.spans();
    let selfs = t.self_times_ns();
    let mut by_name: std::collections::BTreeMap<&'static str, Vec<f64>> = Default::default();
    let mut walls = Vec::new();
    let mut coverage = Vec::new();
    for (r, root_span) in spans.iter().enumerate() {
        if root_span.name != root || root_span.parent != ROOT {
            continue;
        }
        let mut covered = 0.0;
        for (i, s) in spans.iter().enumerate() {
            let mut p = s.parent;
            while p != ROOT && p as usize != r {
                p = spans[p as usize].parent;
            }
            if p == ROOT || i == r {
                continue;
            }
            by_name
                .entry(s.name)
                .or_default()
                .push(selfs[i] as f64 / 1e9);
            covered += selfs[i] as f64;
        }
        let wall = root_span.duration_ns() as f64;
        walls.push(wall / 1e9);
        coverage.push(covered / wall.max(1.0));
    }
    (by_name, walls, coverage)
}

#[allow(clippy::too_many_lines)]
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = work.join("build");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let log = dir.join("access.log");
    let snapshot = dir.join("model.pbss");
    out.note(format!(
        "{LINES}-request NASA-like log (about 31 days), ingest/count/train on {} thread(s), {PREDICTS} predicts per iteration",
        crate::cores()
    ));

    let mut setup = Vec::new();
    let mut log_bytes = 0u64;
    for _ in 0..if traced { 1 } else { SETUPS } {
        let started = Instant::now();
        let trace = nasa_trace(DAYS);
        let requests = from_start_day(&trace, seed);
        if requests.len() < LINES {
            return Err(format!("the trace has only {} requests", requests.len()));
        }
        let (_, bytes) = write_clf_log(&trace, &requests[..LINES], &log)
            .map_err(|e| format!("write log: {e}"))?;
        drop(trace);
        setup.push(secs(started.elapsed()));
        log_bytes = bytes;
    }

    let mut tracer = Tracer::new();
    let mut build_s = Vec::new();
    let mut build_peak = Vec::new();
    let mut load_s = Vec::new();
    let mut resident = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut predicts = Predicts::default();
    // Predicts per second of calls, per timed iteration.
    let mut rates: Vec<f64> = Vec::new();
    let mut iterations = 0usize;
    let mut lines = 0usize;
    let mut rejected = 0usize;
    let mut sessions = 0usize;
    let mut parse_peak = Vec::new();
    let mut storage_done = false;
    let mut timed = Instant::now();
    // Iteration 0 warms caches and the allocator; its figures are dropped.
    while iterations <= MIN_ITERATIONS || secs(timed.elapsed()) < seconds {
        if iterations == 1 {
            for v in [
                &mut build_s,
                &mut build_peak,
                &mut parse_peak,
                &mut load_s,
                &mut resident,
                &mut snapshot_bytes,
            ] {
                v.clear();
            }
            predicts = Predicts::default();
            rates.clear();
            tracer = Tracer::new();
            timed = Instant::now();
        }
        iterations += 1;
        let t = traced.then_some(&mut tracer);
        let built = build(&log, &snapshot, t)?;
        build_s.push(built.wall);
        build_peak.push(built.peak / 1e6);
        parse_peak.push(built.parse_peak / 1e6);
        lines = built.lines;
        rejected = built.rejected;
        sessions = built.sessions;
        snapshot_bytes.push(
            std::fs::metadata(&snapshot)
                .map_err(|e| format!("{}: {e}", snapshot.display()))?
                .len() as f64,
        );

        let heap_before = live_bytes();
        let started = Instant::now();
        let t = traced.then_some(&mut tracer);
        let loaded = load(&snapshot, t, out)?;
        load_s.push(secs(started.elapsed()));
        resident.push(live_bytes().saturating_sub(heap_before) as f64);

        check(&built, &snapshot, &loaded, out)?;
        let t = traced.then_some(&mut tracer);
        let pass = predict_pass(&loaded, &built.contexts, t);
        out.count(
            pass.latency.len(),
            pass.errors,
            "predict on the loaded model answered err",
        );
        rates.push(pass.latency.len() as f64 / secs(pass.busy).max(1e-12));
        predicts.latency.extend(pass.latency);
        predicts.busy += pass.busy;
        predicts.met += pass.met;
        predicts.hits += pass.hits;
        predicts.hints.extend(pass.hints);
        predicts.scan += pass.scan;
        predicts.index += pass.index;
        if traced && !storage_done {
            storage_done = true;
            if let Some(m) = &loaded.model {
                let stats = m.stats();
                crate::storage_layers(
                    [
                        stats.nodes as f64,
                        stats.memory_bytes as f64,
                        m.frozen().map_or(0, pbppm_core::FrozenTree::heap_bytes) as f64,
                        stats.index_bytes as f64,
                        crate::heap_of(|| loaded.urls.clone()),
                        0.0,
                        crate::heap_of(|| m.clone()),
                        stats.total_bytes() as f64,
                    ],
                    out,
                );
            }
        }
    }
    out.note(format!(
        "{} timed build iterations (after one warm-up) over a {lines}-line, {:.1} MB log",
        iterations - 1,
        log_bytes as f64 / 1e6
    ));

    let n = predicts.latency.len();
    let latency = sorted(&predicts.latency);
    let (label, q) = supported_tail(n);
    out.note(format!(
        "predict latency n={n} p50 {:.2} us, p95 {:.2} us, p99 {:.2} us, {label} {:.2} us \
         (the highest percentile with >=10 samples beyond it)",
        percentile(&latency, 0.5) / 1e3,
        percentile(&latency, 0.95) / 1e3,
        percentile(&latency, 0.99) / 1e3,
        percentile(&latency, q) / 1e3
    ));
    out.e2e(
        "predict_slo_ratio",
        predicts.met as f64 / n.max(1) as f64,
        n,
    );
    out.e2e("capacity_rps", median(&rates), n);
    out.e2e("hint_hit_ratio", predicts.hits as f64 / n.max(1) as f64, n);
    out.e2e("resident_bytes", median(&resident), resident.len());
    out.e2e("build_s", median(&build_s), build_s.len());
    out.e2e("load_s", median(&load_s), load_s.len());
    out.e2e("build_peak_mb", median(&build_peak), build_peak.len());
    out.e2e(
        "snapshot_bytes",
        median(&snapshot_bytes),
        snapshot_bytes.len(),
    );
    out.e2e("setup_s", median(&setup), setup.len());

    if traced {
        let (build_layers, build_walls, build_cov) = layer_split(&tracer, "build");
        let (load_layers, load_walls, load_cov) = layer_split(&tracer, "load");
        let get = |m: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str| {
            median(m.get(name).map_or(&[][..], Vec::as_slice))
        };
        let parse_s = get(&build_layers, "ingest.parse");
        out.layer("ingest.parse_s", parse_s);
        out.layer("ingest.lines_per_s", lines as f64 / parse_s.max(1e-12));
        out.layer("ingest.rejected_lines", rejected as f64);
        out.layer("ingest.peak_mb", median(&parse_peak));
        out.layer("sessionize.s", get(&build_layers, "sessionize"));
        out.layer("sessionize.sessions", sessions as f64);
        out.layer("popularity.count_s", get(&build_layers, "popularity.count"));
        out.layer("pb.train_s", get(&build_layers, "pb.train"));
        out.layer("pb.finalize_s", get(&build_layers, "pb.finalize"));
        out.layer(
            "snapshot.encode_s",
            get(&build_layers, "snapshot.image") + get(&build_layers, "snapshot.encode"),
        );
        out.layer("snapshot.write_s", get(&build_layers, "snapshot.write"));
        out.layer("snapshot.read_s", get(&load_layers, "snapshot.read"));
        out.layer("snapshot.decode_s", get(&load_layers, "snapshot.decode"));
        out.layer("pb.restore_s", get(&load_layers, "pb.restore"));
        let audits = load_layers.get("verify.audit").cloned().unwrap_or_default();
        out.layer("verify.audits", audits.len() as f64);
        out.layer(
            "verify.audit_ms.p50",
            percentile(&sorted(&audits), 0.5) * 1e3,
        );
        out.layer(
            "verify.audit_ms.p99",
            percentile(&sorted(&audits), 0.99) * 1e3,
        );
        out.layer("build.traced_s", median(&build_walls));
        out.layer("load.traced_s", median(&load_walls));
        out.layer("build.span_coverage", median(&build_cov));
        out.layer("load.span_coverage", median(&load_cov));
        let selfs = tracer.self_times_by_name();
        let get_ns = |name: &str| selfs.get(name).cloned().unwrap_or_default();
        crate::predict_layers(
            &get_ns("predict.rank"),
            &get_ns("predict.reader"),
            predicts.scan,
            predicts.index,
            &predicts.hints,
            out,
        );
        let path = work.join(format!("spans-{}.tsv", out.workload));
        tracer
            .write_tsv(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        out.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
