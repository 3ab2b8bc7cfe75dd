//! Order statistics and hashing shared by every workload.

/// Median of `xs` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the figures here and a reader's own check agree digit for digit.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let m = n as f64 + 1.0;
    let cut = |i: f64| {
        // Python: j = i * m // 4; delta = i * m - j * 4;
        // result = (data[j-1] * (4 - delta) + data[j] * delta) / 4,
        // with j clamped to [1, n-1].
        let prod = i * m;
        let j = ((prod / 4.0).floor() as usize).clamp(1, n - 1);
        let delta = prod - (j as f64) * 4.0;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1.0), cut(3.0))
}

/// The p99 of `xs`, or `None` when fewer than ten samples lie beyond it
/// (a p99 resting on a handful of samples is noise, not a tail).
pub fn p99(xs: &[f64]) -> Option<f64> {
    if xs.len() < 1000 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64) * 0.99).ceil() as usize - 1;
    Some(v[idx.min(v.len() - 1)])
}

/// A uniform random sample of at most `cap` values from a stream
/// (Vitter's algorithm R), so a client keeps constant memory however
/// many measurements it makes. Seeded: the same stream keeps the same
/// sample.
pub struct Reservoir {
    kept: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: yf_tensor::rng::Pcg32,
}

impl Reservoir {
    pub fn new(cap: usize, seed: u64) -> Reservoir {
        Reservoir {
            kept: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: yf_tensor::rng::Pcg32::seed_stream(seed, 0x5a),
        }
    }

    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < self.cap {
            self.kept.push(x);
        } else {
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < self.cap {
                self.kept[j as usize] = x;
            }
        }
    }

    /// Values pushed so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The kept sample.
    pub fn sample(&self) -> &[f64] {
        &self.kept
    }
}

/// Streaming 64-bit FNV-1a, for the informational output hashes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds the little-endian bit patterns of `xs`.
    pub fn f32s(&mut self, xs: &[f32]) {
        for x in xs {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(p99(&vec![1.0; 999]), None);
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(p99(&xs), Some(989.0));
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        for i in 0..100_000 {
            r.push(f64::from(i));
        }
        assert_eq!((r.seen(), r.sample().len()), (100_000, 1000));
        let m = median(r.sample());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
