//! Inputs made from the workload seed: NASA-like sessions for the serve
//! workloads and a NASA-like CLF access log for the build workload.
//!
//! Every workload serves one fixed NASA-like web site and its traffic:
//! the trace generator runs with [`SITE_SEED`], and `--seed` picks the
//! day the workload's traffic starts on (and, for the serve workloads,
//! the arrival schedule). Letting the seed redraw the site itself changes
//! the model's size by up to ±7% between seeds, which moves its hash
//! tables across a capacity doubling and its resident bytes by ~30%.

use pbppm_core::UrlId;
use pbppm_trace::clf::{format_clf_line, ClfRecord};
use pbppm_trace::{sessionize, Request, SessionizerConfig, Trace, WorkloadConfig, DAY_SECS};
use std::io::Write;
use std::path::Path;

/// Seconds of 1995-07-01 04:00 UTC, where the synthetic logs start
/// (the paper's NASA trace month).
const NASA_EPOCH: i64 = 804_571_200;
/// The generator seed of the site every workload serves.
const SITE_SEED: u64 = 6;
/// Distinct start days `--seed` chooses from.
const START_DAYS: u64 = 16;

/// The NASA-like trace, long enough to start on any of the seed's start
/// days and run `days` days from there.
pub fn nasa_trace(days: usize) -> Trace {
    WorkloadConfig {
        days: days + START_DAYS as usize,
        ..WorkloadConfig::nasa_like(SITE_SEED)
    }
    .generate()
}

/// The requests from the seed's start day on.
pub fn from_start_day(trace: &Trace, seed: u64) -> &[Request] {
    let start = (seed % START_DAYS) * DAY_SECS;
    let first = trace.requests.partition_point(|r| r.time < start);
    &trace.requests[first..]
}

/// Sessions of `days` days of traffic from the seed's start day, each as
/// its URL strings.
pub fn nasa_sessions(seed: u64, days: usize) -> Vec<Vec<String>> {
    let trace = nasa_trace(days);
    let requests = from_start_day(&trace, seed);
    let end = requests.partition_point(|r| r.time < requests[0].time + days as u64 * DAY_SECS);
    let resolve = |id: UrlId| trace.urls.resolve(id).unwrap_or("/").to_owned();
    sessionize(&requests[..end], &SessionizerConfig::default())
        .iter()
        .map(|s| s.views.iter().map(|v| resolve(v.url)).collect())
        .collect()
}

/// Writes `requests` of `trace` as a CLF log starting at the epoch;
/// returns (lines, bytes).
pub fn write_clf_log(
    trace: &Trace,
    requests: &[Request],
    path: &Path,
) -> std::io::Result<(usize, u64)> {
    let base = requests.first().map_or(0, |r| r.time);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for r in requests {
        let rec = ClfRecord {
            host: trace
                .clients
                .resolve(UrlId(r.client.0))
                .unwrap_or("unknown")
                .to_owned(),
            time: i64::try_from(r.time - base).unwrap_or(0) + NASA_EPOCH,
            method: "GET".to_owned(),
            path: trace.urls.resolve(r.url).unwrap_or("/").to_owned(),
            status: r.status,
            size: r.size,
        };
        writeln!(w, "{}", format_clf_line(&rec))?;
    }
    w.flush()?;
    drop(w);
    Ok((requests.len(), std::fs::metadata(path)?.len()))
}

/// Contexts to predict from: every 1–4-click prefix of each session
/// that has a next click, with that next click.
pub fn prefixes(session: &[String]) -> impl Iterator<Item = (&[String], &str)> {
    (1..session.len().min(5)).map(move |k| (&session[..k], session[k].as_str()))
}

/// Whether a rendered `predict` response (`ok N` then N `prob url`
/// rows) lists `url` among its hints; also returns N.
pub fn hints_contain(response: &str, url: &str) -> (bool, usize) {
    let mut rows = response.lines();
    let n = rows
        .next()
        .and_then(|h| h.strip_prefix("ok "))
        .and_then(|n| n.trim().parse::<usize>().ok())
        .unwrap_or(0);
    let hit = rows
        .take(n)
        .any(|row| row.split_whitespace().nth(1) == Some(url));
    (hit, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_rows_are_matched_by_url() {
        let resp = "ok 2\n0.500 /a.html\n0.250 /b.html\n";
        assert_eq!(hints_contain(resp, "/b.html"), (true, 2));
        assert_eq!(hints_contain(resp, "/c.html"), (false, 2));
        assert_eq!(hints_contain("ok 0\n", "/a.html"), (false, 0));
    }

    #[test]
    fn prefixes_stop_at_four_clicks() {
        let s: Vec<String> = (0..7).map(|i| format!("/{i}")).collect();
        let p: Vec<_> = prefixes(&s).collect();
        assert_eq!(p.len(), 4);
        assert_eq!(p[3].0.len(), 4);
        assert_eq!(p[3].1, "/4");
    }
}
