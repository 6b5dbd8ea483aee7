//! The evaluation experiments (E1–E9) of the reproduction.
//!
//! The CLUSTER 2007 paper reports no numeric tables; each experiment here
//! implements a *claim* the paper makes (or the §V future-work comparison it
//! announces), with deterministic simulated-time results so EXPERIMENTS.md
//! can record paper-claim vs measured-shape. The `harness` binary prints
//! each experiment's table; it is the one measurement of that claim.

pub mod e1_mapping;
pub mod e2_extension;
pub mod e3_access_order;
pub mod e4_parallel;
pub mod e5_chunk_stripe;
pub mod e6_ga;
pub mod e7_ablation;
pub mod e8_cache;
pub mod e9_balance;

/// Time `f` over `iters` iterations and return ns/op (monotonic clock).
pub(crate) fn time_per_op(iters: usize, mut f: impl FnMut()) -> u64 {
    let start = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    (start.elapsed().as_nanos() / iters.max(1) as u128) as u64
}

/// Simple deterministic index-stream generator (LCG) so experiments do not
/// depend on `rand` at the library layer.
pub(crate) struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        // Numerical Recipes LCG constants.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform in `0..n`. Uses the high bits — the low bits of a
    /// power-of-two-modulus LCG are short-period and would make small
    /// moduli cyclic rather than uniform.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 33) % n.max(1) as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let mut a = Lcg::new(7);
        let mut b = Lcg::new(7);
        for _ in 0..100 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
    }

    #[test]
    fn time_per_op_returns_something_positive() {
        let ns = time_per_op(100, || {
            std::hint::black_box(3u64.pow(7));
        });
        // Can be 0 on a very fast machine for trivial ops, but must not
        // panic; do a sanity call with real work.
        let ns2 = time_per_op(10, || {
            std::hint::black_box((0..1000u64).sum::<u64>());
        });
        let _ = (ns, ns2);
    }
}
