//! Deterministic, perturbation-free random-number streams.
//!
//! Simulation experiments sweep a parameter (thread count, heap size, …)
//! and compare runs. If all entities shared one RNG, adding a thread would
//! shift every other entity's random draws and make comparisons noisy.
//! [`RngFactory`] instead derives an independent seed per `(label, index)`
//! pair from one master seed, so entity streams are stable across
//! configurations.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives independent [`StdRng`] streams from one master seed.
///
/// Streams are identified by a string label plus an index, e.g.
/// `("mutator", 7)` for mutator thread 7. The same `(seed, label, index)`
/// always yields the same stream.
///
/// # Examples
///
/// ```
/// use scalesim_simkit::RngFactory;
/// use rand::Rng;
///
/// let f = RngFactory::new(42);
/// let mut a = f.stream("mutator", 0);
/// let mut b = f.stream("mutator", 0);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
///
/// let mut c = f.stream("mutator", 1);
/// assert_ne!(f.stream("mutator", 0).gen::<u64>(), c.gen::<u64>());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RngFactory {
    master: u64,
}

impl RngFactory {
    /// Creates a factory from a master seed.
    #[must_use]
    pub fn new(master: u64) -> Self {
        RngFactory { master }
    }

    /// Returns the deterministic stream for `(label, index)`.
    #[must_use]
    pub fn stream(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.derive(label, index))
    }

    /// Derives the raw 64-bit seed for `(label, index)` without building an
    /// RNG; exposed so components can sub-split their own streams.
    #[must_use]
    pub fn derive(&self, label: &str, index: u64) -> u64 {
        let mut h = self.master ^ 0x9e37_79b9_7f4a_7c15;
        for &b in label.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        splitmix64(h ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
    }
}

/// One round of the SplitMix64 finalizer — a strong 64-bit mixer used for
/// seed derivation (not as the simulation RNG itself).
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let f = RngFactory::new(7);
        let xs: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(f.stream("a", 3), |r, _| Some(r.gen()))
            .collect();
        let ys: Vec<u64> = (0..8)
            .map(|_| 0)
            .scan(f.stream("a", 3), |r, _| Some(r.gen()))
            .collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_labels_differ() {
        let f = RngFactory::new(7);
        assert_ne!(f.derive("alloc", 0), f.derive("lock", 0));
    }

    #[test]
    fn different_indices_differ() {
        let f = RngFactory::new(7);
        assert_ne!(f.derive("t", 0), f.derive("t", 1));
    }

    #[test]
    fn different_masters_differ() {
        assert_ne!(
            RngFactory::new(1).derive("t", 0),
            RngFactory::new(2).derive("t", 0)
        );
    }

    #[test]
    fn splitmix_is_not_identity_and_spreads_bits() {
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert_ne!(a, b);
        // single-bit input change flips many output bits
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn stream_values_look_uniform_enough() {
        // cheap sanity check: over 1000 draws in [0,10) every value appears
        let f = RngFactory::new(1234);
        let mut r = f.stream("uniform", 0);
        let mut seen = [0u32; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0..10)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 50), "counts: {seen:?}");
    }
}
