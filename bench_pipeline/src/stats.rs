//! Order statistics over timing samples and the FNV-1a fingerprint over
//! exact (simulated or counted) results.

/// Median, minimum and maximum of a sample; `None` for an empty one.
pub fn median_min_max(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let sorted = sorted(samples);
    let (first, last) = (*sorted.first()?, *sorted.last()?);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Some((median, first, last))
}

/// Median of a sample, `0.0` for an empty one (a layer that did not run).
pub fn median(samples: &[f64]) -> f64 {
    median_min_max(samples).map_or(0.0, |(m, _, _)| m)
}

/// Nearest-rank percentile (`p` in `0..=100`), `0.0` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a stream of words: the fingerprint of everything a workload
/// computed that must not depend on the host (counts, simulated statistics,
/// the learned configuration). Two runs of one seed must agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(FNV_OFFSET)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes the exact bit pattern, so a statistic that moves in its last
    /// digit moves the fingerprint.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_even_and_empty_samples() {
        assert_eq!(median_min_max(&[3.0, 1.0, 2.0]), Some((2.0, 1.0, 3.0)));
        assert_eq!(median_min_max(&[4.0, 1.0, 3.0, 2.0]), Some((2.5, 1.0, 4.0)));
        assert_eq!(median_min_max(&[7.5]), Some((7.5, 7.5, 7.5)));
        assert_eq!(median_min_max(&[]), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }

    #[test]
    fn fingerprint_moves_when_one_statistic_moves() {
        let stats = [412.25_f64, 9_731.0, 0.125];
        let hash = |stats: &[f64]| {
            let mut f = Fingerprint::default();
            f.word(stats.len() as u64);
            stats.iter().for_each(|&s| f.float(s));
            f.value()
        };
        let base = hash(&stats);
        assert_eq!(base, hash(&stats), "same inputs, same fingerprint");
        let mut moved = stats;
        moved[1] = f64::from_bits(moved[1].to_bits() + 1);
        assert_ne!(base, hash(&moved), "one ulp in one statistic must show");
        let swapped = [stats[1], stats[0], stats[2]];
        assert_ne!(base, hash(&swapped), "order is part of the fingerprint");
    }
}
