//! Small numeric helpers: percentiles, quartiles, the seeded generator,
//! digests and peak memory.

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `values`, the same
/// rule as NumPy's default. `+inf` entries (failed requests) sort last, so
/// a percentile that lands among them is itself `+inf`. Returns NaN for an
/// empty slice.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        return v[lo];
    }
    if v[hi].is_infinite() {
        // Interpolating towards a failure is a failure (and inf - inf is NaN).
        return v[hi];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The percentile [`tail`] reports: the highest that repeated between runs
/// on a shared 2-core VM. Over ten `serve-hot` runs the middle half of the
/// windowed p99 spread 55% of its median, the p95 13%, the p90 8%.
pub const TAIL_Q: f64 = 0.9;

/// Samples per window of [`tail`]: enough for ten beyond `TAIL_Q`.
pub const TAIL_WINDOW: usize = 100;

/// The tail latency of a run, from samples in the order they were due.
///
/// With at least two windows of `TAIL_WINDOW` samples, the median over
/// windows of each window's `TAIL_Q` percentile (a final partial window
/// joins the one before it): a host stall of a few milliseconds spoils a
/// window or two, not the run. With fewer samples, the highest of `TAIL_Q`,
/// p75 and p50 that has at least ten samples beyond it, over all samples.
/// Returns the value and the percentile used.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let windows = samples.len() / TAIL_WINDOW;
    if windows >= 2 {
        let per_window: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    samples.len()
                } else {
                    (w + 1) * TAIL_WINDOW
                };
                percentile(&samples[w * TAIL_WINDOW..end], TAIL_Q)
            })
            .collect();
        return (median(&per_window), TAIL_Q);
    }
    let n = samples.len() as f64;
    let q = [TAIL_Q, 0.75]
        .into_iter()
        .find(|q| n * (1.0 - q) >= 10.0)
        .unwrap_or(0.5);
    (percentile(samples, q), q)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, which is how run-to-run
/// spread is judged. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = (n + 1) as f64;
    let cut = |i: f64| {
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1.0), cut(2.0), cut(3.0)])
}

/// 64-bit FNV-1a over `bytes`: the digest the correctness gate compares
/// reports by.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64: the seeded generator behind every input of the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finaliser, also used to hash `(seed, index)` pairs.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process so far, in MB: `VmHWM` of
/// `/proc/self/status`, this process image's own high-water mark. (The
/// `getrusage` peak would also count `cargo`'s, since `cargo run` execs the
/// benchmark in its place.) NaN where the file is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_sorts_inf_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.5) - 2.5).abs() < 1e-12);
        let with_fail = [1.0, 2.0, f64::INFINITY];
        assert_eq!(percentile(&with_fail, 1.0), f64::INFINITY);
        assert!(percentile(&with_fail, 0.9).is_infinite());
        assert_eq!(percentile(&with_fail, 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q2 - 5.5).abs() < 1e-12, "{q2}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    #[test]
    fn tail_is_windowed_or_the_highest_supported_percentile() {
        // 350 samples: windows [0,100), [100,200), [200,350); a stall that
        // spoils one window does not move the median of window p90s.
        let mut v: Vec<f64> = (0..350).map(|i| (i % 100) as f64).collect();
        let (clean, q) = tail(&v);
        assert_eq!(q, TAIL_Q);
        v[150..160].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(tail(&v).0, clean);
        let small: Vec<f64> = (0..199).map(f64::from).collect();
        assert_eq!(tail(&small).1, TAIL_Q);
        assert_eq!(tail(&small[..99]).1, 0.75);
        assert_eq!(tail(&small[..20]).1, 0.5);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut r = Rng::new(8);
        assert_ne!(a[0], r.next_u64());
        let mut r = Rng::new(1);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
