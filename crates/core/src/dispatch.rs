//! Pattern recognition and kernel dispatch (§IV of the paper).
//!
//! "If we recognize a pattern from predefined VOP, ROP, SOP, MOP, and
//! AOP operations, we can optimize the whole kernel by feeding the
//! output of one operation directly to the next operation without
//! storing the results." [`specialize`] performs that recognition on an
//! [`OpSet`] by **kernel shape**, not by preset: the SIMD kernels fix
//! VOP, ROP, MOP and AOP, and take the scalar SOP as a parameter they
//! apply per edge (`sop.apply_scalar(s, a_uv)`). So a user-defined
//! scaling operation — Force2Vec's `s ↦ σ(s) − 1`, an FR repulsion
//! closure — runs on the same register-blocked kernels as the presets
//! ("FusedMM can directly take a scaling operation", §V-D).
//! [`fusedmm_opt`] runs the recognized kernel shape and falls back to
//! the generic five-step kernel for every other operator set.
//!
//! Every recognized shape runs on one kernel family, the generated
//! table in [`crate::genkern::table`]. [`Blocking`] only picks the
//! table shape: [`Blocking::Auto`] takes the static
//! [`KernelSpec::default_for`] shape for the dimension and backend with
//! no probe, the autotuner ([`crate::autotune`]) and prepared plans
//! carry a probed [`Blocking::Specialized`] shape, and
//! [`Blocking::Hybrid`] runs the probed shape per degree class.
//! [`Blocking::DynStrips`] (unblocked) and [`Blocking::Generic`] remain
//! as ablation arms.

use fusedmm_ops::{AOp, MOp, OpSet, ROp, SOp, VOp};
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::driver::parallel_row_bands;
use crate::generic::{fusedmm_generic_opts, validate_shapes};
use crate::genkern::{
    embed_dyn_kernel, embed_spec_kernel, fr_dyn_kernel, fr_spec_kernel, spmm_dyn_kernel,
    spmm_spec_kernel, tdist_dyn_kernel, tdist_spec_kernel, KernelSpec,
};
use crate::part::PartitionStrategy;
use crate::simd::active_backend;

/// Which kernel implementation level to use for a specialized pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Blocking {
    /// The library default: the specialized table's static shape for
    /// the dimension on the active backend
    /// ([`KernelSpec::default_for`]), chosen with no probe.
    Auto,
    /// Resolves exactly like [`Blocking::Auto`]; kept only so existing
    /// exhaustive matches on `Blocking` compile, and slated for removal.
    RegisterBlocked,
    /// Resolves exactly like [`Blocking::Auto`]; kept only so existing
    /// exhaustive matches on `Blocking` compile, and slated for removal.
    StripMined,
    /// Force the dynamic 8-lane strip kernel (no register blocking) —
    /// the register-blocking ablation's unblocked arm.
    DynStrips,
    /// Run one shape from the generated dispatch table (see
    /// [`crate::genkern::table`]): panel passes monomorphized over a
    /// panel/chunk grid, valid for **any** `d ≥ 1` — odd dimensions end
    /// in a fused masked-tail panel. Plans built by the measuring
    /// autotuner carry the probed best shape here.
    Specialized(KernelSpec),
    /// Force the generic five-step kernel even for recognized patterns —
    /// the paper's unoptimized "FusedMM" row.
    Generic,
    /// Degree-aware hybrid execution for skewed graphs: rows are
    /// classified by degree and each class runs a table kernel shaped
    /// for it (gathered batches for short rows, row panels for the
    /// middle, cooperative span-split execution for mega rows), with
    /// the autotuner's probed shape. Engages at every dimension.
    /// Bit-identical to the uniform kernels.
    Hybrid(crate::hybrid::HybridConfig),
}

/// The concrete kernel level [`fusedmm_opt_with`] resolved a
/// [`Blocking`] request to for a given dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Spec(KernelSpec),
    Dyn,
}

impl Level {
    /// The `blocking` label the kernel profile table reports (the
    /// unspecialized path reports `generic` without resolving a level).
    /// Specialized launches report their shape, e.g. `"spec-m12-h32"`.
    fn label(self) -> &'static str {
        match self {
            Level::Spec(s) => s.label(),
            Level::Dyn => "dyn",
        }
    }
}

fn resolve_level(blocking: Blocking, lanes: usize, d: usize) -> Level {
    match blocking {
        Blocking::DynStrips => Level::Dyn,
        Blocking::Specialized(s) => Level::Spec(s),
        Blocking::Auto
        | Blocking::RegisterBlocked
        | Blocking::StripMined
        | Blocking::Generic
        | Blocking::Hybrid(_) => Level::Spec(KernelSpec::default_for(lanes, d)),
    }
}

/// A recognized kernel shape. The scalar SOP is not part of the shape:
/// the embedding and FR kernels apply `ops.sop` per edge, so every
/// operator set of one shape runs the same compiled kernels (and shares
/// one autotuning decision per dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Specialized {
    /// `(MUL, RSUM, <any SOP>, MUL, ASUM)` — dot-product embedding
    /// (sigmoid embedding, Force2Vec's positive term).
    Embed,
    /// `(SUB, NORM, <any SOP but TDIST>, MUL, ASUM)` — distance-scaled
    /// force (FR model, FR-layout repulsion).
    Fr,
    /// `(SUB, NORM, TDIST, MUL, ASUM)` — t-distribution embedding,
    /// whose kernel feeds the squared distance to `1/(1+s²)` without a
    /// square root.
    TDist,
    /// `(SEL2ND, NOOP, NOOP, MUL, ASUM)` — GCN / SpMM.
    Spmm,
}

/// Inspect the actual operator variants (not the pattern tag, which
/// user code could set inconsistently — every [`OpSet::custom`] is
/// tagged `Custom`) and return the kernel shape they match, if any.
/// Custom VOP/ROP/MOP/AOP, AMAX/AMIN, a NOOP MOP and the MLP set match
/// no shape and run the generic kernel.
pub fn specialize(ops: &OpSet) -> Option<Specialized> {
    match (&ops.vop, &ops.rop, &ops.sop, &ops.mop, &ops.aop) {
        (VOp::Mul, ROp::Sum, _, MOp::Mul, AOp::Sum) => Some(Specialized::Embed),
        (VOp::Sub, ROp::Norm, SOp::TDist, MOp::Mul, AOp::Sum) => Some(Specialized::TDist),
        (VOp::Sub, ROp::Norm, _, MOp::Mul, AOp::Sum) => Some(Specialized::Fr),
        (VOp::Sel2nd, ROp::Noop, SOp::Noop, MOp::Mul, AOp::Sum) => Some(Specialized::Spmm),
        _ => None,
    }
}

/// The optimized FusedMM ("FusedMMopt" in Table VI): the specialized
/// table's default register-blocked shape for recognized kernel shapes
/// (see [`specialize`]), generic fallback otherwise. Runs on the
/// current rayon pool with PART1D balancing.
pub fn fusedmm_opt(a: &Csr, x: &Dense, y: &Dense, ops: &OpSet) -> Dense {
    fusedmm_opt_with(a, x, y, ops, Blocking::Auto, None, PartitionStrategy::NnzBalanced)
}

/// [`fusedmm_opt`] with explicit blocking level, partition count, and
/// partition strategy (the knobs the ablation and scaling benches turn).
pub fn fusedmm_opt_with(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    blocking: Blocking,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
) -> Dense {
    validate_shapes(a, x, y);
    let spec = if blocking == Blocking::Generic { None } else { specialize(ops) };
    let Some(spec) = spec else {
        let t0 = std::time::Instant::now();
        let z = fusedmm_generic_opts(a, x, y, ops, partitions, strategy);
        crate::profile::record_kernel(
            ops.pattern,
            x.ncols(),
            active_backend(),
            "generic",
            t0.elapsed(),
            a.nrows(),
            a.nnz(),
        );
        return z;
    };
    let d = x.ncols();
    let backend = active_backend().for_dim(d);
    if let Blocking::Hybrid(cfg) = blocking {
        let kspec = crate::autotune::global_tuner().spec_for(ops, d);
        return crate::hybrid::execute(
            a, x, y, ops, spec, cfg, partitions, strategy, backend, kspec,
        );
    }
    let level = resolve_level(blocking, backend.lanes(), d);
    let mut z = Dense::zeros(a.nrows(), d);
    let t0 = std::time::Instant::now();

    match spec {
        Specialized::Embed | Specialized::Fr => {
            let kern = match (level, spec == Specialized::Embed) {
                (Level::Spec(s), true) => embed_spec_kernel(backend, s),
                (Level::Spec(s), false) => fr_spec_kernel(backend, s),
                (Level::Dyn, true) => embed_dyn_kernel(backend),
                (Level::Dyn, false) => fr_dyn_kernel(backend),
            };
            let sop = &ops.sop;
            parallel_row_bands(a, &mut z, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(x.row(u), cols, vals, y, &mut band[i * d..(i + 1) * d], sop);
                }
            });
        }
        Specialized::TDist => {
            let kern = match level {
                Level::Spec(s) => tdist_spec_kernel(backend, s),
                Level::Dyn => tdist_dyn_kernel(backend),
            };
            parallel_row_bands(a, &mut z, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(x.row(u), cols, vals, y, &mut band[i * d..(i + 1) * d]);
                }
            });
        }
        Specialized::Spmm => {
            let kern = match level {
                Level::Spec(s) => spmm_spec_kernel(backend, s),
                Level::Dyn => spmm_dyn_kernel(backend),
            };
            parallel_row_bands(a, &mut z, partitions, strategy, |rows, band| {
                for (i, u) in rows.enumerate() {
                    let (cols, vals) = a.row(u);
                    kern(cols, vals, y, &mut band[i * d..(i + 1) * d]);
                }
            });
        }
    }
    crate::profile::record_kernel(
        ops.pattern,
        d,
        backend,
        level.label(),
        t0.elapsed(),
        a.nrows(),
        a.nnz(),
    );
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generic::fusedmm_reference;
    use fusedmm_ops::SigmoidLut;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use std::sync::Arc;

    fn graph(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=3usize {
                c.push(u, (u + k * 7) % n, 1.0 + (k as f32) * 0.25);
            }
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 13 + c * 5) as f32 * 0.02 + seed).cos() * 0.4)
    }

    #[test]
    fn recognizes_the_specializable_presets() {
        let lut = Some(Arc::new(SigmoidLut::default_table()));
        assert_eq!(specialize(&OpSet::sigmoid_embedding(None)), Some(Specialized::Embed));
        assert_eq!(specialize(&OpSet::sigmoid_embedding(lut)), Some(Specialized::Embed));
        assert_eq!(specialize(&OpSet::fr_model(2.0)), Some(Specialized::Fr));
        assert_eq!(specialize(&OpSet::tdist_embedding()), Some(Specialized::TDist));
        assert_eq!(specialize(&OpSet::gcn()), Some(Specialized::Spmm));
    }

    #[test]
    fn scalar_custom_sops_take_the_embed_and_fr_shapes() {
        let custom = SOp::Custom(Arc::new(|s, a| a * fusedmm_ops::sigmoid(s) - 1.0));
        for sop in [custom, SOp::ScaleByEdge, SOp::Relu, SOp::Tanh, SOp::Noop, SOp::Scale(0.5)] {
            let embed = OpSet::custom(VOp::Mul, ROp::Sum, sop.clone(), MOp::Mul, AOp::Sum);
            assert_eq!(specialize(&embed), Some(Specialized::Embed), "{sop:?}");
            let fr = OpSet::custom(VOp::Sub, ROp::Norm, sop.clone(), MOp::Mul, AOp::Sum);
            assert_eq!(specialize(&fr), Some(Specialized::Fr), "{sop:?}");
        }
        // TDIST keeps its sqrt-free kernel even when spelled as a
        // custom set; on the dot-product shape it is just another SOP.
        let tdist = OpSet::custom(VOp::Sub, ROp::Norm, SOp::TDist, MOp::Mul, AOp::Sum);
        assert_eq!(specialize(&tdist), Some(Specialized::TDist));
        let dot_tdist = OpSet::custom(VOp::Mul, ROp::Sum, SOp::TDist, MOp::Mul, AOp::Sum);
        assert_eq!(specialize(&dot_tdist), Some(Specialized::Embed));
    }

    #[test]
    fn rejects_nonmatching_opsets() {
        let unmatched = [
            OpSet::custom(VOp::Add, ROp::Sum, SOp::Sigmoid, MOp::Mul, AOp::Sum),
            OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum),
            OpSet::custom(VOp::Mul, ROp::Sum, SOp::Sigmoid, MOp::Mul, AOp::Max),
            OpSet::custom(VOp::Mul, ROp::Sum, SOp::Sigmoid, MOp::Noop, AOp::Sum),
            OpSet::custom(VOp::Sub, ROp::Norm, SOp::Scale(1.0), MOp::Noop, AOp::Sum),
            OpSet::custom(VOp::Sel2nd, ROp::Noop, SOp::Relu, MOp::Mul, AOp::Sum),
            OpSet::gnn_mlp(Arc::new(fusedmm_ops::Mlp::seeded(4, 4, 4, 1))),
        ];
        for ops in &unmatched {
            assert_eq!(specialize(ops), None, "{ops:?}");
        }
    }

    #[test]
    fn opt_matches_generic_for_all_patterns_and_blockings() {
        let n = 40;
        let a = graph(n);
        for d in [16usize, 24, 64] {
            let x = feats(n, d, 0.1);
            let y = feats(n, d, 0.9);
            for ops in [
                OpSet::sigmoid_embedding(None),
                OpSet::fr_model(0.3),
                OpSet::tdist_embedding(),
                OpSet::gcn(),
            ] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let spec = KernelSpec::FALLBACK;
                for blocking in [Blocking::Auto, Blocking::DynStrips, Blocking::Specialized(spec)] {
                    let z = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        blocking,
                        Some(4),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert!(
                        z.max_abs_diff(&reference) < 1e-4,
                        "{:?} blocking {:?} d={d}: diff {}",
                        ops.pattern,
                        blocking,
                        z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    #[test]
    fn auto_and_retired_levels_resolve_to_the_default_spec() {
        // Auto, and the two variants kept only for source compatibility,
        // run the table's static default shape at every d: bit-identical
        // to forcing that shape, and profiled under its label.
        let n = 20;
        let a = graph(n);
        for d in [8usize, 32, 100, 256] {
            let lanes = active_backend().for_dim(d).lanes();
            let x = feats(n, d, 0.1);
            let y = feats(n, d, 0.4);
            let ops = OpSet::sigmoid_embedding(None);
            let def = KernelSpec::default_for(lanes, d);
            let run =
                |b| fusedmm_opt_with(&a, &x, &y, &ops, b, None, PartitionStrategy::NnzBalanced);
            let forced = run(Blocking::Specialized(def));
            for b in [Blocking::Auto, Blocking::RegisterBlocked, Blocking::StripMined] {
                assert_eq!(run(b).as_slice(), forced.as_slice(), "{b:?} d={d}");
                assert_eq!(resolve_level(b, lanes, d), Level::Spec(def));
            }
            assert_eq!(fusedmm_opt(&a, &x, &y, &ops).as_slice(), forced.as_slice());
            let reference = fusedmm_reference(&a, &x, &y, &ops);
            assert!(forced.max_abs_diff(&reference) < 1e-4, "d={d}");
        }
    }

    #[test]
    fn lut_embedding_close_to_exact() {
        let n = 30;
        let a = graph(n);
        let d = 32;
        let x = feats(n, d, 0.2);
        let y = feats(n, d, 0.5);
        let exact = fusedmm_opt(&a, &x, &y, &OpSet::sigmoid_embedding(None));
        let lut = fusedmm_opt(
            &a,
            &x,
            &y,
            &OpSet::sigmoid_embedding(Some(Arc::new(SigmoidLut::default_table()))),
        );
        assert!(exact.max_abs_diff(&lut) < 1e-2);
    }

    #[test]
    fn custom_pattern_falls_back_to_generic() {
        let n = 20;
        let a = graph(n);
        let d = 8;
        let x = feats(n, d, 0.3);
        let y = feats(n, d, 0.6);
        let ops = OpSet::custom(VOp::Add, ROp::Max, SOp::Tanh, MOp::Mul, AOp::Sum);
        let opt = fusedmm_opt(&a, &x, &y, &ops);
        let gen = fusedmm_reference(&a, &x, &y, &ops);
        assert!(opt.max_abs_diff(&gen) < 1e-5);
    }

    #[test]
    fn auto_covers_serving_and_odd_dims() {
        let n = 36;
        let a = graph(n);
        for d in [20usize, 48, 96, 192] {
            let x = feats(n, d, 0.15);
            let y = feats(n, d, 0.55);
            for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn()] {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let z = fusedmm_opt_with(
                    &a,
                    &x,
                    &y,
                    &ops,
                    Blocking::Auto,
                    Some(3),
                    PartitionStrategy::NnzBalanced,
                );
                assert!(
                    z.max_abs_diff(&reference) < 1e-4,
                    "{:?} d={d}: diff {}",
                    ops.pattern,
                    z.max_abs_diff(&reference)
                );
            }
        }
    }
}
