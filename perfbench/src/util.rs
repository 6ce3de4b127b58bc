//! Small shared helpers: a seeded PRNG, sample statistics, and process
//! facts (peak RSS, available cores).

use std::time::{Duration, Instant};

/// xorshift64 with a splitmix scramble of the seed: deterministic, no
/// dependencies, adjacent seeds give unrelated streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// A set of timing samples in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `q`-quantile (0..=1), linear interpolation between closest
    /// ranks; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }

    /// The median; 0 when empty.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest of p99/p95/p90/p75 that has at least ten samples
    /// beyond it, as `(percentile, value)`; `None` when there are fewer
    /// than 40 samples.
    pub fn tail(&self) -> Option<(u32, f64)> {
        let n = self.len() as f64;
        [99u32, 95, 90, 75]
            .into_iter()
            .find(|p| n * (100 - p) as f64 / 100.0 >= 10.0)
            .map(|p| (p, self.quantile(p as f64 / 100.0)))
    }
}

/// The `q`-quantile of `values` (linear interpolation); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Set-up repetitions spread over a run. The host's speed drifts over
/// seconds, so repetitions made back to back all see one moment of it;
/// here the first runs before the measured window and the others at even
/// steps of it, so their median samples the whole run. Time spent in
/// set-up does not count toward the window.
#[derive(Debug)]
pub struct SetupSchedule {
    reps: usize,
    done: usize,
    window: Duration,
    start: Instant,
    in_setup: Duration,
}

impl SetupSchedule {
    /// `reps` repetitions over a window of `window`.
    pub fn new(reps: usize, window: Duration) -> SetupSchedule {
        SetupSchedule { reps, done: 0, window, start: Instant::now(), in_setup: Duration::ZERO }
    }

    /// Run one repetition now, and start the window after the first.
    pub fn run<T>(&mut self, rep: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = rep();
        self.done += 1;
        if self.done == 1 {
            self.start = Instant::now();
        } else {
            self.in_setup += t.elapsed();
        }
        r
    }

    /// Window time so far, set-up excluded.
    fn measured(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.in_setup)
    }

    /// True while the window is open.
    pub fn window_open(&self) -> bool {
        self.measured() < self.window
    }

    /// True when the next repetition is due: during the window at its
    /// step, or at any time after the window closes until all have run.
    pub fn due(&self) -> bool {
        self.done < self.reps
            && (!self.window_open()
                || self.measured() >= self.window.mul_f64(self.done as f64 / self.reps as f64))
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An order-independent digest of a multiset of frames: the frame count
/// and the wrapping sum of the frames' hashes.
pub fn multiset_digest<'a>(frames: impl IntoIterator<Item = &'a Vec<u8>>) -> (u64, u64) {
    frames.into_iter().fold((0, 0), |(n, s), f| (n + 1, s.wrapping_add(fnv64(f))))
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s = Samples((0..39).map(f64::from).collect());
        assert_eq!(s.tail(), None);
        let s = Samples((0..100).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), Some(90));
        let s = Samples((0..1000).map(f64::from).collect());
        assert_eq!(s.tail().map(|t| t.0), Some(99));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(8), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
