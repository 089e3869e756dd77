//! Small statistics helpers: nearest-rank percentiles, medians, the
//! tail percentile a sample count can support, and an FNV-1a digest.

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // index in range
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts a copy and takes its median.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// An ascending-sorted copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p50/p90/p99/p99.9/p99.99 that leaves at least ten
/// samples beyond it, as a label ("p99") and a quantile.
pub fn supported_tail(n: usize) -> (&'static str, f64) {
    let mut best = ("p50", 0.5);
    for (label, q) in [
        ("p90", 0.9),
        ("p99", 0.99),
        ("p99.9", 0.999),
        ("p99.99", 0.9999),
    ] {
        if n as f64 * (1.0 - q) >= 10.0 - 1e-6 {
            best = (label, q);
        }
    }
    best
}

/// 64-bit FNV-1a, the response digest.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a sequence of per-line response hashes.
pub fn digest(line_hashes: &[u64]) -> u64 {
    line_hashes
        .iter()
        .fold(Fnv::new(), |h, x| h.bytes(&x.to_le_bytes()))
        .finish()
}

/// Hash of one response string.
pub fn hash_str(s: &str) -> u64 {
    Fnv::new().bytes(s.as_bytes()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 501.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(50).0, "p50");
        assert_eq!(supported_tail(100).0, "p90");
        assert_eq!(supported_tail(1000).0, "p99");
        assert_eq!(supported_tail(20_000).0, "p99.9");
    }
}
