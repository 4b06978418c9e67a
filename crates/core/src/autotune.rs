//! Runtime autotuning of the blocking strategy per (kernel shape,
//! dimension).
//!
//! The paper's library "tuned the factor of the register blocking after
//! applying different strategies" offline during code generation. We
//! tune at run time instead: the first `fusedmm` call for a given
//! (shape, d) measures each candidate blocking — dynamic strips,
//! strip-mined (when `d ≡ 0 (mod 8)`), register-blocked (when a const
//! specialization exists), and the best plan-time specialized shape
//! from the generated dispatch table ([`Tuner::spec_for`] probes the
//! candidate panel/chunk grid first) — on a small synthetic probe and
//! caches the winner for the rest of the process — the ATLAS
//! philosophy the paper cites, applied lazily. Decisions are keyed by
//! the kernel shape [`specialize`] recognizes, not by the op set's
//! pattern tag: every [`OpSet::custom`] carries the same `Custom` tag
//! whatever kernel it runs, while every op set of one shape runs the
//! same compiled kernels. The SIMD backend is fixed per process, so
//! the (shape, d) key implicitly tunes per (shape, d, ISA).

use std::time::Instant;

use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::OnceLock;

use fusedmm_ops::OpSet;
use fusedmm_sparse::coo::{Coo, Dedup};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::dispatch::{fusedmm_opt_with, specialize, Blocking, Specialized};
use crate::genkern::{candidate_specs, strip_minable, KernelSpec, GENERATED_DIMS};
use crate::part::PartitionStrategy;
use crate::simd::active_backend;

/// Cached tuning decisions, keyed by (kernel shape, dimension).
#[derive(Debug, Default)]
pub struct Tuner {
    cache: RwLock<HashMap<(Specialized, usize), Blocking>>,
    spec_cache: RwLock<HashMap<(Specialized, usize), KernelSpec>>,
}

/// Probe graph size used for tuning runs. Small enough to be
/// imperceptible, large enough that kernel time dominates dispatch.
const PROBE_VERTICES: usize = 512;
const PROBE_DEGREE: usize = 16;
const PROBE_REPS: usize = 3;

impl Tuner {
    /// Create an empty tuner (global instance available via
    /// [`global_tuner`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// The blocking to use for `ops` at dimension `d`, measuring on
    /// first use.
    pub fn choose(&self, ops: &OpSet, d: usize) -> Blocking {
        let Some(shape) = specialize(ops) else {
            return Blocking::Generic;
        };
        let key = (shape, d);
        if let Some(&b) = self.cache.read().get(&key) {
            return b;
        }
        let chosen = self.measure(ops, d);
        self.cache.write().insert(key, chosen);
        chosen
    }

    /// Number of cached decisions (used by tests).
    pub fn cached_len(&self) -> usize {
        self.cache.read().len()
    }

    /// Forget all decisions (used by tests).
    pub fn clear(&self) {
        self.cache.write().clear();
        self.spec_cache.write().clear();
    }

    /// The best specialized kernel shape for `ops` at dimension `d` on
    /// the active backend, probing the candidate grid (see
    /// [`candidate_specs`]) on first use and caching the winner. This
    /// is the shape a `Blocking::Specialized` plan (and the hybrid
    /// dispatcher's degree-class kernels) will run. Op sets that match
    /// no kernel shape get [`KernelSpec::FALLBACK`] without probing.
    pub fn spec_for(&self, ops: &OpSet, d: usize) -> KernelSpec {
        let Some(shape) = specialize(ops) else {
            return KernelSpec::FALLBACK;
        };
        let key = (shape, d);
        if let Some(&s) = self.spec_cache.read().get(&key) {
            return s;
        }
        let chosen = self.measure_spec(ops, shape, d);
        self.spec_cache.write().insert(key, chosen);
        chosen
    }

    fn measure_spec(&self, ops: &OpSet, shape: Specialized, d: usize) -> KernelSpec {
        // Shapes with an SDDMM reduction also probe the message chunk
        // depth; pure SpMM has no message buffer.
        let sddmm = shape != Specialized::Spmm;
        let candidates = candidate_specs(active_backend().lanes(), d, sddmm);
        if candidates.len() == 1 {
            return candidates[0];
        }
        let a = probe_graph();
        let x = probe_features(PROBE_VERTICES, d, 1);
        let y = probe_features(PROBE_VERTICES, d, 2);
        let mut best = (KernelSpec::FALLBACK, f64::INFINITY);
        for s in candidates {
            let b = Blocking::Specialized(s);
            let _ = fusedmm_opt_with(&a, &x, &y, ops, b, None, PartitionStrategy::NnzBalanced);
            let mut t_min = f64::INFINITY;
            for _ in 0..PROBE_REPS {
                let t0 = Instant::now();
                let _ = fusedmm_opt_with(&a, &x, &y, ops, b, None, PartitionStrategy::NnzBalanced);
                t_min = t_min.min(t0.elapsed().as_secs_f64());
            }
            if t_min < best.1 {
                best = (s, t_min);
            }
        }
        best.0
    }

    fn measure(&self, ops: &OpSet, d: usize) -> Blocking {
        let a = probe_graph();
        let x = probe_features(PROBE_VERTICES, d, 1);
        let y = probe_features(PROBE_VERTICES, d, 2);
        let mut candidates = vec![Blocking::DynStrips];
        if strip_minable(d) {
            candidates.push(Blocking::StripMined);
        }
        if GENERATED_DIMS.contains(&d) {
            candidates.push(Blocking::RegisterBlocked);
        }
        // The specialized table covers any d >= 1; enter its best
        // probed shape as one candidate against the fixed levels.
        candidates.push(Blocking::Specialized(self.spec_for(ops, d)));
        let mut best = (Blocking::DynStrips, f64::INFINITY);
        for b in candidates {
            // Warm-up then timed repetitions, keeping the minimum (least
            // noisy statistic for short kernels).
            let _ = fusedmm_opt_with(&a, &x, &y, ops, b, None, PartitionStrategy::NnzBalanced);
            let mut t_min = f64::INFINITY;
            for _ in 0..PROBE_REPS {
                let t0 = Instant::now();
                let _ = fusedmm_opt_with(&a, &x, &y, ops, b, None, PartitionStrategy::NnzBalanced);
                t_min = t_min.min(t0.elapsed().as_secs_f64());
            }
            if t_min < best.1 {
                best = (b, t_min);
            }
        }
        best.0
    }
}

/// A deterministic quasi-random probe graph (no RNG dependency): each
/// vertex links to `PROBE_DEGREE` pseudo-random targets via a multiplier
/// walk.
fn probe_graph() -> Csr {
    let n = PROBE_VERTICES;
    let mut c = Coo::with_capacity(n, n, n * PROBE_DEGREE);
    for u in 0..n {
        let mut t = u;
        for k in 0..PROBE_DEGREE {
            t = (t.wrapping_mul(2654435761) + k + 1) % n;
            if t != u {
                c.push(u, t, 1.0);
            }
        }
    }
    c.to_csr(Dedup::Last)
}

fn probe_features(n: usize, d: usize, seed: usize) -> Dense {
    Dense::from_fn(n, d, |r, c| (((r * 131 + c * 17 + seed * 97) % 1000) as f32 / 1000.0) - 0.5)
}

static GLOBAL_TUNER: OnceLock<Tuner> = OnceLock::new();

/// The process-wide tuner used by [`crate::fusedmm`].
pub fn global_tuner() -> &'static Tuner {
    GLOBAL_TUNER.get_or_init(Tuner::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_ops::{AOp, MOp, ROp, SOp, VOp};

    #[test]
    fn caches_decisions() {
        let tuner = Tuner::new();
        let ops = OpSet::sigmoid_embedding(None);
        assert_eq!(tuner.cached_len(), 0);
        let b1 = tuner.choose(&ops, 32);
        assert_eq!(tuner.cached_len(), 1);
        let b2 = tuner.choose(&ops, 32);
        assert_eq!(b1, b2);
        assert_eq!(tuner.cached_len(), 1);
    }

    #[test]
    fn nonspecializable_ops_pick_generic_without_measurement() {
        let tuner = Tuner::new();
        let ops = OpSet::custom(VOp::Add, ROp::Sum, SOp::Noop, MOp::Mul, AOp::Sum);
        assert_eq!(tuner.choose(&ops, 64), Blocking::Generic);
        assert_eq!(tuner.cached_len(), 0, "generic fallback needs no cache entry");
    }

    #[test]
    fn ungeneratable_dim_picks_dyn_or_specialized() {
        let tuner = Tuner::new();
        let ops = OpSet::gcn();
        // 100 is neither in GENERATED_DIMS nor a multiple of 8: the
        // candidates are DynStrips and the specialized table (whose
        // masked-tail panels cover odd dims).
        let b = tuner.choose(&ops, 100);
        assert!(matches!(b, Blocking::DynStrips | Blocking::Specialized(_)), "{b:?}");
    }

    #[test]
    fn spec_for_is_cached_and_on_grid() {
        let tuner = Tuner::new();
        let ops = OpSet::sigmoid_embedding(None);
        let s1 = tuner.spec_for(&ops, 100);
        let s2 = tuner.spec_for(&ops, 100);
        assert_eq!(s1, s2);
        assert!(KernelSpec::new(s1.main_panels() as u8, s1.h_chunk() as u16).is_some());
        tuner.clear();
        assert_eq!(tuner.cached_len(), 0);
    }

    #[test]
    fn strip_minable_dim_never_falls_back_to_generic() {
        let tuner = Tuner::new();
        let ops = OpSet::gcn();
        // 96 is a multiple of 8 but has no const specialization:
        // candidates are DynStrips, StripMined, and the spec table.
        let b = tuner.choose(&ops, 96);
        assert!(
            matches!(b, Blocking::DynStrips | Blocking::StripMined | Blocking::Specialized(_)),
            "{b:?}"
        );
    }

    #[test]
    fn generated_dim_picks_a_specialized_blocking() {
        let tuner = Tuner::new();
        let ops = OpSet::fr_model(1.0);
        let b = tuner.choose(&ops, 64);
        assert!(matches!(
            b,
            Blocking::DynStrips
                | Blocking::StripMined
                | Blocking::RegisterBlocked
                | Blocking::Specialized(_)
        ));
        assert_ne!(b, Blocking::Generic);
    }

    #[test]
    fn clear_resets() {
        let tuner = Tuner::new();
        tuner.choose(&OpSet::gcn(), 100);
        assert!(tuner.cached_len() > 0);
        tuner.clear();
        assert_eq!(tuner.cached_len(), 0);
    }

    #[test]
    fn custom_op_sets_are_cached_by_kernel_shape() {
        // Both sets carry the `Custom` pattern tag, but one runs the
        // embedding kernels and the other the FR kernels: they must not
        // share a tuning decision. A second set of the embedding shape
        // reuses the first one's.
        let tuner = Tuner::new();
        let sig = SOp::Custom(std::sync::Arc::new(|s, _| fusedmm_ops::sigmoid(s) - 1.0));
        let embed = OpSet::custom(VOp::Mul, ROp::Sum, sig, MOp::Mul, AOp::Sum);
        let fr = OpSet::custom(VOp::Sub, ROp::Norm, SOp::Scale(0.5), MOp::Mul, AOp::Sum);
        tuner.choose(&embed, 24);
        tuner.choose(&fr, 24);
        assert_eq!(tuner.cached_len(), 2);
        tuner.choose(&OpSet::sigmoid_embedding(None), 24);
        assert_eq!(tuner.cached_len(), 2);
    }

    #[test]
    fn global_tuner_is_a_singleton() {
        let a = global_tuner() as *const Tuner;
        let b = global_tuner() as *const Tuner;
        assert_eq!(a, b);
    }
}
