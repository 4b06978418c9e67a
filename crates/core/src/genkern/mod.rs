//! Generated, pattern-specialized SIMD kernels.
//!
//! §IV of the paper: when the five steps match a predefined pattern, the
//! library dispatches to a kernel where the steps are fused into
//! straight-line SIMD code with no intermediate stores — `x_u` is loaded
//! once per row, `z_u` accumulates in registers across the neighbor
//! loop and is written to memory once per panel (Fig. 5). The reference
//! implementation generates one kernel per (pattern × dimension × ISA)
//! with the `extract` metalanguage tool and tunes among them. Here the
//! generator is the const-generic [`table`]: every kernel body is
//! instantiated over a grid of register-panel shapes
//! ([`KernelSpec`]) and monomorphized per SIMD
//! [`Backend`](crate::simd::Backend) (AVX-512 / AVX2+FMA / NEON /
//! scalar). Its masked-tail panels accept any `d ≥ 1`, so one family
//! covers every dimension; a plan picks the shape per `(pattern, d,
//! backend)`.
//!
//! Beside the table sits one unblocked family, [`dyn_strips`]: per
//! neighbor a full-row reduction followed by a full-row axpy, with
//! `z_u` in memory — the register-blocking ablation's baseline arm.

pub mod dyn_strips;
pub mod table;

use fusedmm_ops::SOp;
use fusedmm_sparse::dense::Dense;

use crate::simd::SimdIsa;

pub use dyn_strips::{embed_dyn_kernel, fr_dyn_kernel, spmm_dyn_kernel, tdist_dyn_kernel};
pub use table::{
    candidate_specs, embed_msg_kernel, embed_spec_batch_kernel, embed_spec_kernel, fr_msg_kernel,
    fr_spec_batch_kernel, fr_spec_kernel, span_spec_kernel, spmm_spec_batch_kernel,
    spmm_spec_kernel, tdist_msg_kernel, tdist_spec_batch_kernel, tdist_spec_kernel, KernelSpec,
    H_CHUNK,
};

/// Row kernel signature shared by the embedding and FR patterns: the
/// scalar message `sop.apply_scalar(s, a_uv)` of each edge scales `y_v`
/// (`s` is the dot product for embedding, the norm of the displacement
/// for FR).
pub type SopRowKernel = fn(&[f32], &[usize], &[f32], &Dense, &mut [f32], &SOp);
/// Row kernel signature for the GCN/SpMM pattern.
pub type SpmmRowKernel = fn(&[usize], &[f32], &Dense, &mut [f32]);
/// Row kernel signature for the t-distribution embedding pattern.
pub type TDistRowKernel = fn(&[f32], &[usize], &[f32], &Dense, &mut [f32]);

/// One short row gathered into a batch for the hybrid dispatcher's
/// short-row class: the row's `x` slice, its neighbor list, edge values,
/// and where in the output band the row's `z` slice lives.
#[derive(Debug, Clone, Copy)]
pub struct GatheredRow<'a> {
    /// Feature row `x_u` of the batched row.
    pub xu: &'a [f32],
    /// Neighbor column ids of the row.
    pub cols: &'a [usize],
    /// Edge values aligned with `cols`.
    pub vals: &'a [f32],
    /// Row index *within the output band* (`z` offset is `band_row * d`).
    pub band_row: usize,
}

/// Batched short-row kernel for the embedding and FR patterns: several
/// gathered rows share one SIMD sweep over a common message buffer.
pub type SopBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32], &SOp);
/// Batched short-row kernel for the t-distribution pattern.
pub type TDistBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32]);
/// Batched short-row kernel for the SpMM pattern.
pub type SpmmBatchKernel = fn(&[GatheredRow<'_>], &Dense, &mut [f32]);

/// Message-fill kernel for the embedding and FR patterns (mega-row
/// phase A): computes `h[i] = sop(s(x_u, y_{cols[i]}), vals[i])` for a
/// column slice and its aligned edge values.
pub type SopMsgKernel = fn(&[f32], &[usize], &[f32], &Dense, &SOp, &mut [f32]);
/// Message-fill kernel for the t-distribution pattern.
pub type TDistMsgKernel = fn(&[f32], &[usize], &Dense, &mut [f32]);
/// Column-span sweep kernel (mega-row phase B): folds *all* neighbor
/// messages into one VLEN-aligned span `z[span_off .. span_off + w)` of
/// the output row, in original neighbor order. Splitting `d` into spans
/// keeps the per-element accumulation order identical to the row
/// kernel while letting threads own disjoint spans.
pub type SpanSweepKernel = fn(&[usize], &[f32], &Dense, &mut [f32], usize);

/// The SDDMM reduction of the scalar-SOP kernel shapes: the dot product
/// `x_u · y_v` (embedding, `DIST = false`) or the distance
/// `‖x_u − y_v‖` (FR, `DIST = true`). Every embedding and FR body is
/// written once over this switch; the branch folds away per
/// monomorphization.
#[inline(always)]
fn score<I: SimdIsa, const DIST: bool>(xu: &[f32], yv: &[f32]) -> f32 {
    if DIST {
        I::sqdist(xu, yv).sqrt()
    } else {
        I::dot(xu, yv)
    }
}

/// One monomorphization of an ISA-generic body per backend, each
/// compiled under the matching `#[target_feature]` so the whole inlined
/// body codegens with that ISA. Const parameters (shape, reduction)
/// pass through, so a selector turbofishes a grid point into a plain fn
/// pointer. The entries are private: they are sound to call only on a
/// CPU with the ISA, which the selectors (`select!`) check.
macro_rules! isa_entries {
    ($body:ident => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident;
     [$(const $cp:ident: $ct:ty),*]; ($($a:ident: $t:ty),*)) => {
        fn $scalar<$(const $cp: $ct),*>($($a: $t),*) {
            $body::<$crate::simd::ScalarIsa, $($cp),*>($($a),*)
        }

        #[cfg(target_arch = "x86_64")]
        fn $avx2<$(const $cp: $ct),*>($($a: $t),*) {
            #[target_feature(enable = "avx2,fma")]
            unsafe fn inner<$(const $cp: $ct),*>($($a: $t),*) {
                $body::<$crate::simd::Avx2Isa, $($cp),*>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx2Fma::is_available() returned true.
            unsafe { inner::<$($cp),*>($($a),*) }
        }

        // avx2+fma are enabled too: reductions finish with the ymm
        // cleanup that keeps them bit-identical to the AVX2 backend.
        #[cfg(target_arch = "x86_64")]
        fn $avx512<$(const $cp: $ct),*>($($a: $t),*) {
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn inner<$(const $cp: $ct),*>($($a: $t),*) {
                $body::<$crate::simd::Avx512Isa, $($cp),*>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Avx512::is_available() returned true.
            unsafe { inner::<$($cp),*>($($a),*) }
        }

        #[cfg(target_arch = "aarch64")]
        fn $neon<$(const $cp: $ct),*>($($a: $t),*) {
            #[target_feature(enable = "neon")]
            unsafe fn inner<$(const $cp: $ct),*>($($a: $t),*) {
                $body::<$crate::simd::NeonIsa, $($cp),*>($($a),*)
            }
            // Safety: the selectors only hand this entry out after
            // Backend::Neon::is_available() returned true.
            unsafe { inner::<$($cp),*>($($a),*) }
        }
    };
}
use isa_entries;

/// Backend → kernel entry: checks that `$b` runs on this CPU, then
/// hands the matching entry to `$pick!(entry, args..)`, which
/// turbofishes its const parameters (see `table`'s shape pickers, or
/// `plain!` for fixed ones).
macro_rules! select {
    ($b:expr, $pick:ident!($($args:tt)*) => $scalar:ident, $avx2:ident, $avx512:ident, $neon:ident) => {{
        let b: $crate::simd::Backend = $b;
        assert!(b.is_available(), "backend {b} not available on this CPU");
        match b {
            #[cfg(target_arch = "x86_64")]
            $crate::simd::Backend::Avx512 => $pick!($avx512 $($args)*),
            #[cfg(target_arch = "x86_64")]
            $crate::simd::Backend::Avx2Fma => $pick!($avx2 $($args)*),
            #[cfg(target_arch = "aarch64")]
            $crate::simd::Backend::Neon => $pick!($neon $($args)*),
            _ => $pick!($scalar $($args)*),
        }
    }};
}
use select;

/// Shape picker with fixed const parameters (none, or a reduction
/// switch): `plain!(entry)` or `plain!(entry, true)`.
macro_rules! plain {
    ($entry:ident $(, $pre:tt)*) => {
        $entry::<$($pre),*>
    };
}
use plain;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::active_backend;
    use fusedmm_ops::{sigmoid, SigmoidLut};
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::csr::Csr;
    use std::sync::Arc;

    fn star(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 0.5 + v as f32 * 0.1);
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 31 + c * 7) as f32 * 0.01 + seed).sin() * 0.5)
    }

    /// The shape `Blocking::Auto` runs at `d` on the active backend.
    fn auto_spec(d: usize) -> KernelSpec {
        KernelSpec::default_for(active_backend().lanes(), d)
    }

    #[test]
    fn embed_dyn_matches_scalar_reference() {
        let a = star(6);
        for d in [4usize, 8, 12, 32] {
            let x = feats(6, d, 0.1);
            let y = feats(6, d, 0.7);
            let (cols, vals) = a.row(0);
            let mut z = vec![0f32; d];
            embed_dyn_kernel(active_backend())(x.row(0), cols, vals, &y, &mut z, &SOp::Sigmoid);
            // scalar reference
            let mut zr = vec![0f32; d];
            for &v in cols {
                let s: f32 = x.row(0).iter().zip(y.row(v)).map(|(a, b)| a * b).sum();
                let h = sigmoid(s);
                for (o, &yv) in zr.iter_mut().zip(y.row(v)) {
                    *o += h * yv;
                }
            }
            for k in 0..d {
                assert!((z[k] - zr[k]).abs() < 1e-4, "d={d} k={k}: {} vs {}", z[k], zr[k]);
            }
        }
    }

    #[test]
    fn embed_spec_matches_dyn() {
        let a = star(10);
        let d = 32;
        let x = feats(10, d, 0.3);
        let y = feats(10, d, 0.9);
        let (cols, vals) = a.row(0);
        let b = active_backend();
        let mut z_dyn = vec![0f32; d];
        let mut z_spec = vec![0f32; d];
        embed_dyn_kernel(b)(x.row(0), cols, vals, &y, &mut z_dyn, &SOp::Sigmoid);
        embed_spec_kernel(b, auto_spec(d))(x.row(0), cols, vals, &y, &mut z_spec, &SOp::Sigmoid);
        for k in 0..d {
            assert!((z_dyn[k] - z_spec[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn fr_spec_matches_dyn() {
        let a = star(8);
        let d = 16;
        let x = feats(8, d, 0.2);
        let y = feats(8, d, 0.4);
        let (cols, vals) = a.row(0);
        let b = active_backend();
        let mut z_dyn = vec![0f32; d];
        let mut z_spec = vec![0f32; d];
        fr_dyn_kernel(b)(x.row(0), cols, vals, &y, &mut z_dyn, &SOp::Scale(0.7));
        fr_spec_kernel(b, auto_spec(d))(x.row(0), cols, vals, &y, &mut z_spec, &SOp::Scale(0.7));
        for k in 0..d {
            assert!((z_dyn[k] - z_spec[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn tdist_spec_matches_dyn() {
        let a = star(8);
        let d = 16;
        let x = feats(8, d, 0.25);
        let y = feats(8, d, 0.45);
        let (cols, vals) = a.row(0);
        let b = active_backend();
        let mut z_dyn = vec![0f32; d];
        let mut z_spec = vec![0f32; d];
        tdist_dyn_kernel(b)(x.row(0), cols, vals, &y, &mut z_dyn);
        tdist_spec_kernel(b, auto_spec(d))(x.row(0), cols, vals, &y, &mut z_spec);
        for k in 0..d {
            assert!((z_dyn[k] - z_spec[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn tdist_messages_bounded_by_one() {
        // h = 1/(1+s) with s >= 0, so each edge contributes at most y_v.
        let a = star(5);
        let d = 8;
        let x = feats(5, d, 0.1);
        let y = Dense::filled(5, d, 1.0);
        let mut z = vec![0f32; d];
        tdist_dyn_kernel(active_backend())(x.row(0), a.row(0).0, a.row(0).1, &y, &mut z);
        let degree = a.row_nnz(0) as f32;
        assert!(z.iter().all(|&v| v > 0.0 && v <= degree));
    }

    #[test]
    fn spmm_spec_matches_dyn_with_weights() {
        let a = star(8);
        let d = 8;
        let y = feats(8, d, 0.6);
        let (cols, vals) = a.row(0);
        let b = active_backend();
        let mut z_dyn = vec![0f32; d];
        let mut z_spec = vec![0f32; d];
        spmm_dyn_kernel(b)(cols, vals, &y, &mut z_dyn);
        spmm_spec_kernel(b, auto_spec(d))(cols, vals, &y, &mut z_spec);
        for k in 0..d {
            assert!((z_dyn[k] - z_spec[k]).abs() < 1e-5);
        }
    }

    #[test]
    fn lut_sigmoid_close_to_exact_in_kernel() {
        let a = star(5);
        let d = 16;
        let x = feats(5, d, 0.1);
        let y = feats(5, d, 0.2);
        let (cols, vals) = a.row(0);
        let kern = embed_dyn_kernel(active_backend());
        let mut z_exact = vec![0f32; d];
        let mut z_lut = vec![0f32; d];
        kern(x.row(0), cols, vals, &y, &mut z_exact, &SOp::Sigmoid);
        let lut = SOp::SigmoidLut(Arc::new(SigmoidLut::default_table()));
        kern(x.row(0), cols, vals, &y, &mut z_lut, &lut);
        for k in 0..d {
            assert!((z_exact[k] - z_lut[k]).abs() < 5e-3);
        }
    }

    #[test]
    fn empty_row_leaves_zero() {
        let d = 8;
        let y = feats(4, d, 0.5);
        let mut z = vec![0f32; d];
        embed_spec_kernel(active_backend(), auto_spec(d))(
            &[0.0; 8],
            &[],
            &[],
            &y,
            &mut z,
            &SOp::Sigmoid,
        );
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
