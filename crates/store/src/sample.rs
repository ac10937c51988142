//! Sampling strategies (paper §5.2: "the implementation of Charles could
//! benefit from the incorporation of sampling strategies. The calculation
//! of medians is a major bottleneck. However, not all tuples are necessary
//! to give good results.").

use crate::bitmap::Bitmap;
use rand::Rng;

/// Algorithm R reservoir sampling over the set bits of a selection:
/// returns up to `k` row indices drawn uniformly without replacement.
pub(crate) fn reservoir_sample(sel: &Bitmap, k: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut reservoir: Vec<usize> = Vec::with_capacity(k);
    if k == 0 {
        return reservoir;
    }
    for (seen, idx) in sel.iter_ones().enumerate() {
        if seen < k {
            reservoir.push(idx);
        } else {
            let j = rng.gen_range(0..=seen);
            if j < k {
                reservoir[j] = idx;
            }
        }
    }
    reservoir
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn reservoir_returns_k_when_enough() {
        let sel = Bitmap::ones(1000);
        let mut rng = StdRng::seed_from_u64(7);
        let s = reservoir_sample(&sel, 50, &mut rng);
        assert_eq!(s.len(), 50);
        // All sampled indices must come from the selection.
        assert!(s.iter().all(|&i| sel.get(i)));
        // Without replacement.
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 50);
    }

    #[test]
    fn reservoir_returns_all_when_small() {
        let sel = Bitmap::from_indices(100, [3, 14, 15]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = reservoir_sample(&sel, 10, &mut rng);
        s.sort_unstable();
        assert_eq!(s, vec![3, 14, 15]);
    }

    #[test]
    fn reservoir_k_zero() {
        let sel = Bitmap::ones(10);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(reservoir_sample(&sel, 0, &mut rng).is_empty());
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Each of 100 rows should appear ~ k/n of the time across trials.
        let sel = Bitmap::ones(100);
        let mut rng = StdRng::seed_from_u64(42);
        let mut hits = vec![0usize; 100];
        let trials = 2000;
        for _ in 0..trials {
            for idx in reservoir_sample(&sel, 10, &mut rng) {
                hits[idx] += 1;
            }
        }
        let expected = trials as f64 * 10.0 / 100.0; // 200
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64) > expected * 0.5 && (h as f64) < expected * 1.5,
                "row {i} sampled {h} times, expected ~{expected}"
            );
        }
    }
}
