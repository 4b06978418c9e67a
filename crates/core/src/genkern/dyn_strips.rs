//! The unblocked dynamic-dimension kernels (`Blocking::DynStrips`):
//! per neighbor a full-row reduction (dot / squared distance) followed
//! by a full-row axpy, with `z_u` living in memory — one load+store per
//! 8-lane strip per neighbor. Works for any `d`. The register-blocking
//! ablation runs these against the [`super::table`] kernels, whose
//! panel accumulators stay in registers across the neighbor loop.

use fusedmm_ops::SOp;
use fusedmm_sparse::dense::Dense;

use crate::simd::{Backend, SimdIsa};

use super::{isa_entries, plain, score, select, SopRowKernel, SpmmRowKernel, TDistRowKernel};

#[inline(always)]
fn sop_dyn_body<I: SimdIsa, const DIST: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sop: &SOp,
) {
    for (&v, &a) in cols.iter().zip(&vals[..cols.len()]) {
        let yv = y.row(v);
        let h = sop.apply_scalar(score::<I, DIST>(xu, yv), a);
        I::axpy(h, yv, zu);
    }
}

#[inline(always)]
fn tdist_dyn_body<I: SimdIsa>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    for &v in cols {
        let yv = y.row(v);
        let h = 1.0 / (1.0 + I::sqdist(xu, yv));
        I::axpy(h, yv, zu);
    }
}

#[inline(always)]
fn spmm_dyn_body<I: SimdIsa>(cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]) {
    for (&v, &a) in cols.iter().zip(vals) {
        I::axpy(a, y.row(v), zu);
    }
}

isa_entries!(sop_dyn_body => sop_dyn_scalar, sop_dyn_avx2, sop_dyn_avx512, sop_dyn_neon;
    [const DIST: bool]; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], sop: &SOp));
isa_entries!(tdist_dyn_body => tdist_dyn_scalar, tdist_dyn_avx2, tdist_dyn_avx512, tdist_dyn_neon;
    []; (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));
isa_entries!(spmm_dyn_body => spmm_dyn_scalar, spmm_dyn_avx2, spmm_dyn_avx512, spmm_dyn_neon;
    []; (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

/// The dynamic-dimension embedding kernel compiled for `b` (any `d`).
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn embed_dyn_kernel(b: Backend) -> SopRowKernel {
    select!(b, plain!(, false) => sop_dyn_scalar, sop_dyn_avx2, sop_dyn_avx512, sop_dyn_neon)
}

/// The dynamic-dimension FR kernel compiled for `b` (any `d`).
pub fn fr_dyn_kernel(b: Backend) -> SopRowKernel {
    select!(b, plain!(, true) => sop_dyn_scalar, sop_dyn_avx2, sop_dyn_avx512, sop_dyn_neon)
}

/// The dynamic-dimension t-distribution kernel compiled for `b`
/// (any `d`).
pub fn tdist_dyn_kernel(b: Backend) -> TDistRowKernel {
    select!(b, plain!() => tdist_dyn_scalar, tdist_dyn_avx2, tdist_dyn_avx512, tdist_dyn_neon)
}

/// The dynamic-dimension SpMM kernel compiled for `b` (any `d`).
pub fn spmm_dyn_kernel(b: Backend) -> SpmmRowKernel {
    select!(b, plain!() => spmm_dyn_scalar, spmm_dyn_avx2, spmm_dyn_avx512, spmm_dyn_neon)
}
