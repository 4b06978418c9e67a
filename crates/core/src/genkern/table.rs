//! Plan-time kernel specialization: the generated dispatch table of
//! monomorphized kernel shapes, selected per `(pattern, d, backend,
//! degree-class)` when a plan is built — the library's one register-
//! blocked kernel family.
//!
//! The feature dimension is tiled into register-wide panels whose
//! `z_u` accumulators stay **register-resident across the neighbor
//! loop**; for the patterns with an SDDMM reduction (embedding, FR,
//! t-dist) the per-neighbor messages `h_v` are produced in chunks and
//! each chunk is swept panel by panel, so `z_u`'s memory traffic is one
//! load+store per panel per chunk instead of per neighbor (the dyn
//! kernels). This is GE-SpMM's rule applied to FusedMM: specialize the
//! inner loop to the vector width, not to the whole feature dimension.
//! Every kernel body is instantiated over a small set of const-generic
//! shapes —
//!
//! * `MAIN` — panels per main-pass iteration, in units of the
//!   backend's lane width (`SimdIsa::LANES`): [`MAIN_GRID`] =
//!   {4, 6, 8, 12, 24};
//! * `HC` — SDDMM message-buffer depth: [`HC_GRID`] = {16, 32, 64};
//!
//! — and a [`KernelSpec`] names one point of that grid. A plan runs
//! either the static default for its `(lanes, d)`
//! ([`KernelSpec::default_for`], what `Blocking::Auto` resolves to) or
//! the shape the autotuner probed best among [`candidate_specs`]; the
//! spec is stored in the plan, so steady-state dispatch is one
//! fn-pointer call. This is the same "generate every shape, then
//! select one" structure the paper's `extract` tool applies per
//! dimension — moved from code-generation time to plan time.
//!
//! The kernels accept **any** `d ≥ 1`: the cascade ends in one
//! mask-predicated panel (`SimdIsa::loadu_partial` /
//! `SimdIsa::storeu_partial`) that covers the final sub-register
//! remainder fused, so odd dimensions get register-blocked panels too.
//!
//! Shape choices never change results: for every output element the
//! fold over neighbors runs in row-storage order regardless of how
//! `MAIN` tiles the dimension or `HC` chunks the neighbor list, so all
//! specs of one backend are bit-identical to each other — and the
//! AVX-512 and AVX2 backends stay bit-identical to *each other* down
//! the masked tails (see [`crate::simd`]).
//!
//! The hybrid dispatcher's degree classes run shaped variants of the
//! same cascade: gathered short-row batches, and the mega-row split
//! into a message fill (phase A) and column-span sweeps (phase B).

use fusedmm_ops::SOp;
use fusedmm_sparse::dense::Dense;

use crate::simd::{Backend, SimdIsa, VLEN};

use super::{
    isa_entries, plain, score, select, GatheredRow, SopBatchKernel, SopMsgKernel, SopRowKernel,
    SpanSweepKernel, SpmmBatchKernel, SpmmRowKernel, TDistBatchKernel, TDistMsgKernel,
    TDistRowKernel,
};

/// Neighbors whose messages the default shape buffers per chunk, and
/// the fixed message-buffer depth of the short-row batch kernels: a
/// 32-deep reuse of each `z_u` panel load while the chunk's `y` rows
/// (32·d·4 bytes — 12 KiB at d = 96) stay hot in L1 between the
/// reduction pass and the panel sweep.
pub const H_CHUNK: usize = 32;

/// Main-pass panel counts the table instantiates (units of the
/// backend's lane width). 24 only pays on 16-lane ISAs (32 zmm
/// registers); on 8-lane backends it would spill, so
/// [`candidate_specs`] filters it out there.
pub const MAIN_GRID: &[u8] = &[4, 6, 8, 12, 24];

/// SDDMM message-buffer depths the table instantiates. Patterns with
/// no reduction (SpMM) ignore the depth; their specs pin it to 32.
pub const HC_GRID: &[u16] = &[16, 32, 64];

/// One point of the specialization grid: the shape of a monomorphized
/// kernel. Only grid points can be constructed ([`KernelSpec::new`]),
/// so a spec always maps to a compiled instantiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    main_panels: u8,
    h_chunk: u16,
}

impl KernelSpec {
    /// The shape for a dimension too narrow for any main pass, and for
    /// op sets that match no kernel: a 4-panel main pass and the
    /// [`H_CHUNK`] message depth.
    pub const FALLBACK: KernelSpec = KernelSpec { main_panels: 4, h_chunk: H_CHUNK as u16 };

    /// Build a spec from a grid point; `None` when either coordinate
    /// is off the generated grid.
    pub fn new(main_panels: u8, h_chunk: u16) -> Option<KernelSpec> {
        if MAIN_GRID.contains(&main_panels) && HC_GRID.contains(&h_chunk) {
            Some(KernelSpec { main_panels, h_chunk })
        } else {
            None
        }
    }

    /// The static shape for `d` on a `lanes`-wide backend, chosen with
    /// no probe: the largest main pass [`candidate_specs`] allows, at
    /// the [`H_CHUNK`] message depth. At `d ≡ 0 (mod 8)` that main pass
    /// is the lead pass of the fixed 24/12/8/6/4/2/1 cascade the
    /// library ran before the table existed (8 panels at d = 128 on
    /// AVX-512, 12 on 8-lane backends).
    pub fn default_for(lanes: usize, d: usize) -> KernelSpec {
        let main_panels = MAIN_GRID
            .iter()
            .copied()
            .filter(|&m| main_fits(m, lanes, d))
            .max()
            .unwrap_or(Self::FALLBACK.main_panels);
        KernelSpec { main_panels, h_chunk: H_CHUNK as u16 }
    }

    /// Panels per main-pass iteration, in units of the backend's lane
    /// count.
    pub fn main_panels(&self) -> usize {
        self.main_panels as usize
    }

    /// SDDMM message-buffer depth (neighbors per chunk).
    pub fn h_chunk(&self) -> usize {
        self.h_chunk as usize
    }

    /// Static profiling label for this shape, e.g. `"spec-m12-h32"` —
    /// the blocking label recorded per kernel launch by
    /// [`crate::profile`].
    pub fn label(&self) -> &'static str {
        match (self.main_panels, self.h_chunk) {
            (4, 16) => "spec-m4-h16",
            (4, 32) => "spec-m4-h32",
            (4, 64) => "spec-m4-h64",
            (6, 16) => "spec-m6-h16",
            (6, 32) => "spec-m6-h32",
            (6, 64) => "spec-m6-h64",
            (8, 16) => "spec-m8-h16",
            (8, 32) => "spec-m8-h32",
            (8, 64) => "spec-m8-h64",
            (12, 16) => "spec-m12-h16",
            (12, 32) => "spec-m12-h32",
            (12, 64) => "spec-m12-h64",
            (24, 16) => "spec-m24-h16",
            (24, 32) => "spec-m24-h32",
            (24, 64) => "spec-m24-h64",
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }
}

/// Whether an `m`-panel main pass fits dimension `d` at the backend's
/// lane width — 24 panels only where 32 vector registers exist.
fn main_fits(m: u8, lanes: usize, d: usize) -> bool {
    m as usize * lanes <= d && (m <= 12 || lanes >= 16)
}

/// The shapes worth probing for a `(d, backend)` pair: main-pass sizes
/// that fit the dimension at the backend's lane width, crossed with
/// the chunk depths — all of [`HC_GRID`] for SDDMM patterns, pinned to
/// 32 where there is no reduction. Never empty: a dimension too narrow
/// for any main pass still runs its 4/2/1/masked-tail passes under the
/// fallback shape.
pub fn candidate_specs(lanes: usize, d: usize, sddmm: bool) -> Vec<KernelSpec> {
    let mut mains: Vec<u8> =
        MAIN_GRID.iter().copied().filter(|&m| main_fits(m, lanes, d)).collect();
    if mains.is_empty() {
        mains.push(KernelSpec::FALLBACK.main_panels);
    }
    let hcs: &[u16] = if sddmm { HC_GRID } else { &[H_CHUNK as u16] };
    let mut out = Vec::with_capacity(mains.len() * hcs.len());
    for &m in &mains {
        for &h in hcs {
            out.push(KernelSpec { main_panels: m, h_chunk: h });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ISA-generic shaped bodies
// ---------------------------------------------------------------------------

/// `z[j] (+)= Σ_i h[i] · y_{cols[i]}[off + j]` over the output columns
/// `off .. off + z.len()` of the row: `MAIN` panels per main-pass
/// iteration, then 4/2/1-panel cleanup passes, then one mask-predicated
/// panel for the sub-register remainder. `LOAD_Z` picks whether the
/// accumulators start from the current `z` (accumulate) or from `+0.0`
/// (overwrite — bit-identical to accumulating into a zeroed row, minus
/// one row read). Per output element the fold order over `cols` is
/// identical for every `MAIN` and every column offset: shape and span
/// split are pure performance choices.
#[inline(always)]
fn panel_spec<I: SimdIsa, const MAIN: usize, const LOAD_Z: bool>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    z: &mut [f32],
    off: usize,
) {
    let w = z.len();
    let d = y.ncols();
    assert!(off + w <= d, "spec kernel: columns {off}..{} past row width {d}", off + w);
    assert!(h.len() >= cols.len(), "spec kernel: fewer messages than neighbors");
    let nrows = y.nrows();
    let yp = y.as_slice().as_ptr();
    let zp = z.as_mut_ptr();
    let mut p = 0;
    // Safety: every pointer offset below is `v * d + off + p + lanes`
    // with `v < y.nrows()` (asserted before each use) and
    // `off + p + lanes <= d` (the masked tail reads/writes only `w - p`
    // lanes), hence in bounds of `y`'s backing slice; z offsets stay
    // below `w`.
    unsafe {
        macro_rules! spec_pass {
            ($panels:expr) => {
                while p + $panels * I::LANES <= w {
                    let mut acc = [I::zero(); $panels];
                    if LOAD_Z {
                        for (q, a) in acc.iter_mut().enumerate() {
                            *a = I::loadu(zp.add(p + q * I::LANES));
                        }
                    }
                    for (&v, &hi) in cols.iter().zip(h) {
                        assert!(v < nrows, "spec kernel: column {v} out of range");
                        let hv = I::splat(hi);
                        let base = yp.add(v * d + off + p);
                        for (q, a) in acc.iter_mut().enumerate() {
                            *a = I::fma(*a, hv, I::loadu(base.add(q * I::LANES)));
                        }
                    }
                    for (q, a) in acc.iter().enumerate() {
                        I::storeu(zp.add(p + q * I::LANES), *a);
                    }
                    p += $panels * I::LANES;
                }
            };
        }
        spec_pass!(MAIN);
        if MAIN > 4 {
            spec_pass!(4);
        }
        spec_pass!(2);
        spec_pass!(1);
        // Masked tail: lanes past the remainder load as +0.0 and
        // contribute h·0, and the masked store leaves memory past the
        // span untouched.
        if p < w {
            let r = w - p;
            let mut acc = if LOAD_Z { I::loadu_partial(zp.add(p), r) } else { I::zero() };
            for (&v, &hi) in cols.iter().zip(h) {
                assert!(v < nrows, "spec kernel: column {v} out of range");
                let hv = I::splat(hi);
                acc = I::fma(acc, hv, I::loadu_partial(yp.add(v * d + off + p), r));
            }
            I::storeu_partial(zp.add(p), acc, r);
        }
    }
}

/// [`panel_spec`] over a whole output row.
#[inline(always)]
fn panel_row<I: SimdIsa, const MAIN: usize, const LOAD_Z: bool>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    assert_eq!(y.ncols(), zu.len(), "spec kernel: y width {} != output width", y.ncols());
    panel_spec::<I, MAIN, LOAD_Z>(cols, h, y, zu, 0)
}

/// `h[i] = sop(s(x_u, y_{cols[i]}), vals[i])` — the embedding / FR
/// messages, `s` chosen by `DIST` (see [`score`]).
#[inline(always)]
fn sop_fill<I: SimdIsa, const DIST: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    sop: &SOp,
    h: &mut [f32],
) {
    for ((hi, &v), &a) in h.iter_mut().zip(cols).zip(vals) {
        *hi = sop.apply_scalar(score::<I, DIST>(xu, y.row(v)), a);
    }
}

/// `h[i] = 1 / (1 + ‖x_u − y_{cols[i]}‖²)` — the t-distribution
/// messages; the squared distance feeds the rational kernel directly.
#[inline(always)]
fn tdist_fill<I: SimdIsa>(xu: &[f32], cols: &[usize], y: &Dense, h: &mut [f32]) {
    for (hi, &v) in h.iter_mut().zip(cols) {
        *hi = 1.0 / (1.0 + I::sqdist(xu, y.row(v)));
    }
}

// --- shaped row kernels (uniform path) -------------------------------------

#[inline(always)]
fn sop_spec_row_body<I: SimdIsa, const DIST: bool, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
    sop: &SOp,
) {
    let vals = &vals[..cols.len()];
    let mut h = [0f32; HC];
    for (chunk, cvals) in cols.chunks(HC).zip(vals.chunks(HC)) {
        sop_fill::<I, DIST>(xu, chunk, cvals, y, sop, &mut h);
        panel_row::<I, MAIN, true>(chunk, &h, y, zu);
    }
}

#[inline(always)]
fn tdist_spec_row_body<I: SimdIsa, const MAIN: usize, const HC: usize>(
    xu: &[f32],
    cols: &[usize],
    _vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    let mut h = [0f32; HC];
    for chunk in cols.chunks(HC) {
        tdist_fill::<I>(xu, chunk, y, &mut h);
        panel_row::<I, MAIN, true>(chunk, &h, y, zu);
    }
}

#[inline(always)]
fn spmm_spec_row_body<I: SimdIsa, const MAIN: usize>(
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    zu: &mut [f32],
) {
    // No SDDMM reduction: edge weights are the messages, one sweep.
    panel_row::<I, MAIN, true>(cols, vals, y, zu);
}

// --- shaped batch kernels (hybrid short class) -----------------------------
//
// Gather-style short-row kernels: several short rows per call share
// one message buffer and one indirect dispatch. Each row fills its
// messages and immediately runs the overwriting cascade (`LOAD_Z =
// false`): each gathered row must carry its entire neighbor list and
// its output slice must be freshly zeroed (the hybrid sweep guarantees
// both). Skipping the output-row load is what makes the gather path
// cheaper for rows whose setup traffic rivals their neighbor work.
// Shaped only in MAIN: the message buffer stays at the fixed H_CHUNK
// depth because the hybrid gatherer sizes its staging batches against
// that constant.

/// Every gathered row must fit the shared message buffer on its own:
/// the bodies fill and fold one row at a time, so the buffer bounds the
/// per-row degree, not the batch total.
#[inline(always)]
fn assert_batch_fits(rows: &[GatheredRow<'_>]) {
    for r in rows {
        assert!(
            r.cols.len() <= H_CHUNK,
            "gathered row stages {} neighbors, message buffer holds {H_CHUNK}",
            r.cols.len()
        );
    }
}

#[inline(always)]
fn band_row_slice(band: &mut [f32], band_row: usize, d: usize) -> &mut [f32] {
    &mut band[band_row * d..(band_row + 1) * d]
}

#[inline(always)]
fn sop_spec_batch_body<I: SimdIsa, const DIST: bool, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
    sop: &SOp,
) {
    let d = y.ncols();
    assert_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        let n = row.cols.len();
        sop_fill::<I, DIST>(row.xu, row.cols, &row.vals[..n], y, sop, &mut h);
        panel_row::<I, MAIN, false>(row.cols, &h[..n], y, band_row_slice(band, row.band_row, d));
    }
}

#[inline(always)]
fn tdist_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
) {
    let d = y.ncols();
    assert_batch_fits(rows);
    let mut h = [0f32; H_CHUNK];
    for row in rows {
        let n = row.cols.len();
        tdist_fill::<I>(row.xu, row.cols, y, &mut h);
        panel_row::<I, MAIN, false>(row.cols, &h[..n], y, band_row_slice(band, row.band_row, d));
    }
}

#[inline(always)]
fn spmm_spec_batch_body<I: SimdIsa, const MAIN: usize>(
    rows: &[GatheredRow<'_>],
    y: &Dense,
    band: &mut [f32],
) {
    let d = y.ncols();
    // No SDDMM reduction: the edge weights are the messages already.
    for row in rows {
        panel_row::<I, MAIN, false>(row.cols, row.vals, y, band_row_slice(band, row.band_row, d));
    }
}

// --- mega-row kernels (hybrid mega class) ----------------------------------
//
// Phase A fills the messages for a slice of a mega row's neighbors;
// each message is an independent reduction, so slices can be filled by
// different threads with no effect on the result. Phase B accumulates
// *every* neighbor, in original row order, into one column span of
// `z_u`: threads split the row by output columns, not by neighbors, so
// the per-element fold order is fixed by the span plan — bit-identical
// to the row kernel regardless of thread count.

#[inline(always)]
fn assert_msg_slices(cols: &[usize], vals: &[f32], h: &[f32]) {
    assert!(
        cols.len() == h.len() && vals.len() == h.len(),
        "message slice length {} != neighbor slice length {} / value slice length {}",
        h.len(),
        cols.len(),
        vals.len()
    );
}

#[inline(always)]
fn sop_msg_body<I: SimdIsa, const DIST: bool>(
    xu: &[f32],
    cols: &[usize],
    vals: &[f32],
    y: &Dense,
    sop: &SOp,
    h: &mut [f32],
) {
    assert_msg_slices(cols, vals, h);
    sop_fill::<I, DIST>(xu, cols, vals, y, sop, h);
}

#[inline(always)]
fn tdist_msg_body<I: SimdIsa>(xu: &[f32], cols: &[usize], y: &Dense, h: &mut [f32]) {
    assert_eq!(cols.len(), h.len(), "message slice length != neighbor slice length");
    tdist_fill::<I>(xu, cols, y, h);
}

/// The column-span sweep: folds all neighbors, in row order, into one
/// span `z[span_off .. span_off + w)` of the output row. The span
/// *offset* must stay VLEN-aligned (it fixes each thread's fold
/// origin); the width may end unaligned only for the final span, which
/// absorbs the sub-VLEN remainder at odd `d` in the masked-tail panel.
#[inline(always)]
fn span_spec_body<I: SimdIsa, const MAIN: usize>(
    cols: &[usize],
    h: &[f32],
    y: &Dense,
    z_span: &mut [f32],
    span_off: usize,
) {
    let w = z_span.len();
    let d = y.ncols();
    assert!(
        span_off.is_multiple_of(VLEN)
            && span_off + w <= d
            && (w.is_multiple_of(VLEN) || span_off + w == d),
        "span [{span_off}, {span_off}+{w}) not a VLEN-aligned slice of row width {d}"
    );
    panel_spec::<I, MAIN, true>(cols, h, y, z_span, span_off)
}

// ---------------------------------------------------------------------------
// Per-backend shaped entries and selectors
// ---------------------------------------------------------------------------

isa_entries!(sop_spec_row_body => sop_spec_scalar, sop_spec_avx2, sop_spec_avx512, sop_spec_neon;
    [const DIST: bool, const MAIN: usize, const HC: usize];
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32], sop: &SOp));
isa_entries!(tdist_spec_row_body => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon;
    [const MAIN: usize, const HC: usize];
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));
isa_entries!(spmm_spec_row_body => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon;
    [const MAIN: usize]; (cols: &[usize], vals: &[f32], y: &Dense, zu: &mut [f32]));

isa_entries!(sop_spec_batch_body => sop_batch_scalar, sop_batch_avx2, sop_batch_avx512, sop_batch_neon;
    [const DIST: bool, const MAIN: usize];
    (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32], sop: &SOp));
isa_entries!(tdist_spec_batch_body => tdist_batch_scalar, tdist_batch_avx2, tdist_batch_avx512, tdist_batch_neon;
    [const MAIN: usize]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));
isa_entries!(spmm_spec_batch_body => spmm_batch_scalar, spmm_batch_avx2, spmm_batch_avx512, spmm_batch_neon;
    [const MAIN: usize]; (rows: &[GatheredRow<'_>], y: &Dense, band: &mut [f32]));

isa_entries!(sop_msg_body => sop_msg_scalar, sop_msg_avx2, sop_msg_avx512, sop_msg_neon;
    [const DIST: bool];
    (xu: &[f32], cols: &[usize], vals: &[f32], y: &Dense, sop: &SOp, h: &mut [f32]));
isa_entries!(tdist_msg_body => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon;
    []; (xu: &[f32], cols: &[usize], y: &Dense, h: &mut [f32]));
isa_entries!(span_spec_body => span_spec_scalar, span_spec_avx2, span_spec_avx512, span_spec_neon;
    [const MAIN: usize];
    (cols: &[usize], h: &[f32], y: &Dense, z_span: &mut [f32], span_off: usize));

/// Turbofish a `(MAIN, HC)` grid point, after the fixed const
/// parameters `$pre`, into the matching compiled instantiation of
/// `$entry`.
macro_rules! shape_mh {
    ($entry:ident, $spec:expr $(, $pre:tt)*) => {{
        let s: KernelSpec = $spec;
        match (s.main_panels, s.h_chunk) {
            (4, 16) => $entry::<$($pre,)* 4, 16>,
            (4, 32) => $entry::<$($pre,)* 4, 32>,
            (4, 64) => $entry::<$($pre,)* 4, 64>,
            (6, 16) => $entry::<$($pre,)* 6, 16>,
            (6, 32) => $entry::<$($pre,)* 6, 32>,
            (6, 64) => $entry::<$($pre,)* 6, 64>,
            (8, 16) => $entry::<$($pre,)* 8, 16>,
            (8, 32) => $entry::<$($pre,)* 8, 32>,
            (8, 64) => $entry::<$($pre,)* 8, 64>,
            (12, 16) => $entry::<$($pre,)* 12, 16>,
            (12, 32) => $entry::<$($pre,)* 12, 32>,
            (12, 64) => $entry::<$($pre,)* 12, 64>,
            (24, 16) => $entry::<$($pre,)* 24, 16>,
            (24, 32) => $entry::<$($pre,)* 24, 32>,
            (24, 64) => $entry::<$($pre,)* 24, 64>,
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }};
}

/// Turbofish a `MAIN`-only grid point (batch/span/SpMM shapes) into
/// the matching compiled instantiation of `$entry`.
macro_rules! shape_m {
    ($entry:ident, $spec:expr $(, $pre:tt)*) => {{
        let s: KernelSpec = $spec;
        match s.main_panels {
            4 => $entry::<$($pre,)* 4>,
            6 => $entry::<$($pre,)* 6>,
            8 => $entry::<$($pre,)* 8>,
            12 => $entry::<$($pre,)* 12>,
            24 => $entry::<$($pre,)* 24>,
            _ => unreachable!("KernelSpec outside the generated shape grid"),
        }
    }};
}

/// The shaped embedding row kernel compiled for `(b, spec)`. Accepts
/// any `d ≥ 1` — odd dimensions end in the fused masked-tail panel.
///
/// # Panics
/// Panics when `b` is not available on this CPU.
pub fn embed_spec_kernel(b: Backend, spec: KernelSpec) -> SopRowKernel {
    select!(b, shape_mh!(, spec, false) => sop_spec_scalar, sop_spec_avx2, sop_spec_avx512, sop_spec_neon)
}

/// The shaped FR row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn fr_spec_kernel(b: Backend, spec: KernelSpec) -> SopRowKernel {
    select!(b, shape_mh!(, spec, true) => sop_spec_scalar, sop_spec_avx2, sop_spec_avx512, sop_spec_neon)
}

/// The shaped t-distribution row kernel compiled for `(b, spec)` (see
/// [`embed_spec_kernel`] for the contract).
pub fn tdist_spec_kernel(b: Backend, spec: KernelSpec) -> TDistRowKernel {
    select!(b, shape_mh!(, spec) => tdist_spec_scalar, tdist_spec_avx2, tdist_spec_avx512, tdist_spec_neon)
}

/// The shaped SpMM row kernel compiled for `(b, spec)`; only the
/// main-pass shape applies (no SDDMM reduction, no message buffer).
pub fn spmm_spec_kernel(b: Backend, spec: KernelSpec) -> SpmmRowKernel {
    select!(b, shape_m!(, spec) => spmm_spec_scalar, spmm_spec_avx2, spmm_spec_avx512, spmm_spec_neon)
}

/// The shaped short-row embedding batch kernel compiled for
/// `(b, spec)` — the hybrid short class. Message depth stays at
/// [`H_CHUNK`] (the gatherer's staging contract); only the main-pass
/// shape is specialized. Each gathered row's output slice is
/// overwritten, not accumulated into.
///
/// # Panics
/// Panics when `b` is not available on this CPU. The returned kernel
/// panics when a gathered row stages more than [`H_CHUNK`] neighbors.
pub fn embed_spec_batch_kernel(b: Backend, spec: KernelSpec) -> SopBatchKernel {
    select!(b, shape_m!(, spec, false) => sop_batch_scalar, sop_batch_avx2, sop_batch_avx512, sop_batch_neon)
}

/// The shaped short-row FR batch kernel compiled for `(b, spec)` (see
/// [`embed_spec_batch_kernel`] for the contract).
pub fn fr_spec_batch_kernel(b: Backend, spec: KernelSpec) -> SopBatchKernel {
    select!(b, shape_m!(, spec, true) => sop_batch_scalar, sop_batch_avx2, sop_batch_avx512, sop_batch_neon)
}

/// The shaped short-row t-distribution batch kernel compiled for
/// `(b, spec)` (see [`embed_spec_batch_kernel`] for the contract).
pub fn tdist_spec_batch_kernel(b: Backend, spec: KernelSpec) -> TDistBatchKernel {
    select!(b, shape_m!(, spec) => tdist_batch_scalar, tdist_batch_avx2, tdist_batch_avx512, tdist_batch_neon)
}

/// The shaped short-row SpMM batch kernel compiled for `(b, spec)` (no
/// message buffer, so the row degree is unconstrained).
pub fn spmm_spec_batch_kernel(b: Backend, spec: KernelSpec) -> SpmmBatchKernel {
    select!(b, shape_m!(, spec) => spmm_batch_scalar, spmm_batch_avx2, spmm_batch_avx512, spmm_batch_neon)
}

/// The mega-row embedding message-fill kernel compiled for `b` (phase
/// A of the split-mega-row pass; each neighbor slice is an independent
/// fill).
pub fn embed_msg_kernel(b: Backend) -> SopMsgKernel {
    select!(b, plain!(, false) => sop_msg_scalar, sop_msg_avx2, sop_msg_avx512, sop_msg_neon)
}

/// The mega-row FR message-fill kernel compiled for `b`.
pub fn fr_msg_kernel(b: Backend) -> SopMsgKernel {
    select!(b, plain!(, true) => sop_msg_scalar, sop_msg_avx2, sop_msg_avx512, sop_msg_neon)
}

/// The mega-row t-distribution message-fill kernel compiled for `b`.
pub fn tdist_msg_kernel(b: Backend) -> TDistMsgKernel {
    select!(b, plain!() => tdist_msg_scalar, tdist_msg_avx2, tdist_msg_avx512, tdist_msg_neon)
}

/// The shaped mega-row column-span sweep compiled for `(b, spec)` —
/// hybrid phase B, pattern-independent (the messages were already
/// computed). The final span may end unaligned at odd `d`.
pub fn span_spec_kernel(b: Backend, spec: KernelSpec) -> SpanSweepKernel {
    select!(b, shape_m!(, spec) => span_spec_scalar, span_spec_avx2, span_spec_avx512, span_spec_neon)
}

#[cfg(test)]
mod tests {
    use super::super::{embed_dyn_kernel, fr_dyn_kernel, spmm_dyn_kernel, tdist_dyn_kernel};
    use super::*;
    use crate::simd::active_backend;
    use fusedmm_sparse::coo::{Coo, Dedup};
    use fusedmm_sparse::csr::Csr;

    fn chain(n: usize, deg: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            for k in 1..=deg {
                c.push(u, (u + k * 3) % n, 0.25 + k as f32 * 0.5);
            }
        }
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 31 + c * 7) as f32 * 0.01 + seed).sin() * 0.3)
    }

    fn available() -> impl Iterator<Item = Backend> {
        Backend::ALL.iter().copied().filter(|b| b.is_available())
    }

    #[test]
    fn grid_membership_is_enforced() {
        assert!(KernelSpec::new(12, 32).is_some());
        assert!(KernelSpec::new(24, 16).is_some());
        assert!(KernelSpec::new(5, 32).is_none());
        assert!(KernelSpec::new(12, 48).is_none());
        assert_eq!(KernelSpec::FALLBACK.label(), "spec-m4-h32");
    }

    #[test]
    fn labels_are_unique_per_grid_point() {
        let mut seen = std::collections::HashSet::new();
        for &m in MAIN_GRID {
            for &h in HC_GRID {
                assert!(seen.insert(KernelSpec::new(m, h).unwrap().label()));
            }
        }
        assert_eq!(seen.len(), MAIN_GRID.len() * HC_GRID.len());
    }

    #[test]
    fn candidates_respect_lane_width_and_dim() {
        // 8-lane backend at d=96: 24-panel (192-lane) shapes excluded.
        let c8 = candidate_specs(8, 96, true);
        assert!(c8.iter().all(|s| s.main_panels() * 8 <= 96 && s.main_panels() <= 12));
        assert!(c8.iter().any(|s| s.main_panels() == 12));
        // 16-lane backend at d=384: the 24-panel sweep is in.
        let c16 = candidate_specs(16, 384, true);
        assert!(c16.iter().any(|s| s.main_panels() == 24));
        // Narrow dims still yield the fallback shape.
        let c7 = candidate_specs(16, 7, true);
        assert!(!c7.is_empty());
        assert!(c7.iter().all(|s| s.main_panels() == 4));
        // No reduction -> chunk depth pinned.
        let spmm = candidate_specs(8, 96, false);
        assert!(spmm.iter().all(|s| s.h_chunk() == 32));
    }

    #[test]
    fn default_is_the_largest_candidate_main_pass() {
        // The lead pass of the fixed strip cascade at d = 128.
        assert_eq!(KernelSpec::default_for(16, 128), KernelSpec::new(8, 32).unwrap());
        assert_eq!(KernelSpec::default_for(8, 128), KernelSpec::new(12, 32).unwrap());
        assert_eq!(KernelSpec::default_for(16, 384), KernelSpec::new(24, 32).unwrap());
        assert_eq!(KernelSpec::default_for(8, 384), KernelSpec::new(12, 32).unwrap());
        assert_eq!(KernelSpec::default_for(16, 8), KernelSpec::FALLBACK);
        for lanes in [8usize, 16] {
            for d in [1usize, 7, 8, 16, 32, 48, 64, 96, 100, 128, 192, 384, 1024] {
                let largest = *candidate_specs(lanes, d, false).last().unwrap();
                assert_eq!(KernelSpec::default_for(lanes, d), largest, "lanes={lanes} d={d}");
            }
        }
    }

    #[test]
    fn every_spec_bit_identical_to_the_default_shape() {
        // Shape is a pure performance choice: every candidate spec must
        // reproduce the default shape bit for bit, at aligned and odd
        // dims, on every available backend.
        let n = 80;
        let a = chain(n, 70);
        for d in [7usize, 8, 48, 96, 100, 192] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            for b in available() {
                let def = KernelSpec::default_for(b.lanes(), d);
                let mut z_def = vec![0f32; d];
                embed_spec_kernel(b, def)(x.row(3), cols, vals, &y, &mut z_def, &SOp::Sigmoid);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    embed_spec_kernel(b, spec)(x.row(3), cols, vals, &y, &mut z, &SOp::Sigmoid);
                    assert_eq!(z, z_def, "embed {b} d={d} {}", spec.label());
                }
                let mut z_def = vec![0f32; d];
                spmm_spec_kernel(b, def)(cols, vals, &y, &mut z_def);
                for spec in candidate_specs(b.lanes(), d, false) {
                    let mut z = vec![0f32; d];
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    assert_eq!(z, z_def, "spmm {b} d={d} {}", spec.label());
                }
                let mut z_def = vec![0f32; d];
                tdist_spec_kernel(b, def)(x.row(3), cols, vals, &y, &mut z_def);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    tdist_spec_kernel(b, spec)(x.row(3), cols, vals, &y, &mut z);
                    assert_eq!(z, z_def, "tdist {b} d={d} {}", spec.label());
                }
            }
        }
    }

    #[test]
    fn spec_matches_dyn_on_every_available_backend() {
        // The dyn path's reductions and scalar tails are unfused, the
        // spec panels fused, so agreement is within tolerance. Degrees
        // beyond every chunk depth exercise the chunked message buffer.
        let n = 80;
        let a = chain(n, 70);
        for d in [1usize, 7, 8, 20, 24, 48, 96, 100, 192, 384] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            let close = |z: &[f32], r: &[f32], tol: f32, what: &str| {
                for k in 0..d {
                    assert!((z[k] - r[k]).abs() < tol, "{what} d={d} k={k}: {} vs {}", z[k], r[k]);
                }
            };
            for b in available() {
                let mut z_dyn = vec![0f32; d];
                embed_dyn_kernel(b)(x.row(5), cols, vals, &y, &mut z_dyn, &SOp::Sigmoid);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    embed_spec_kernel(b, spec)(x.row(5), cols, vals, &y, &mut z, &SOp::Sigmoid);
                    close(&z, &z_dyn, 1e-5, &format!("embed {b} {}", spec.label()));
                }
                // sqrt amplifies tiny sqdist differences; keep 1e-4.
                let mut z_dyn = vec![0f32; d];
                fr_dyn_kernel(b)(x.row(5), cols, vals, &y, &mut z_dyn, &SOp::Scale(0.6));
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    fr_spec_kernel(b, spec)(x.row(5), cols, vals, &y, &mut z, &SOp::Scale(0.6));
                    close(&z, &z_dyn, 1e-4, &format!("fr {b} {}", spec.label()));
                }
                let mut z_dyn = vec![0f32; d];
                tdist_dyn_kernel(b)(x.row(5), cols, vals, &y, &mut z_dyn);
                for spec in candidate_specs(b.lanes(), d, true) {
                    let mut z = vec![0f32; d];
                    tdist_spec_kernel(b, spec)(x.row(5), cols, vals, &y, &mut z);
                    close(&z, &z_dyn, 1e-5, &format!("tdist {b} {}", spec.label()));
                }
                let mut z_dyn = vec![0f32; d];
                spmm_dyn_kernel(b)(cols, vals, &y, &mut z_dyn);
                for spec in candidate_specs(b.lanes(), d, false) {
                    let mut z = vec![0f32; d];
                    spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z);
                    close(&z, &z_dyn, 1e-5, &format!("spmm {b} {}", spec.label()));
                }
            }
        }
    }

    #[test]
    fn empty_row_is_identity_for_spec() {
        let y = feats(4, 16, 0.5);
        let mut z = vec![0.75f32; 16];
        spmm_spec_kernel(active_backend(), KernelSpec::FALLBACK)(&[], &[], &y, &mut z);
        assert!(z.iter().all(|&v| v == 0.75));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_spec_bit_identical_to_avx2_spec_at_odd_dims() {
        // The cross-backend guarantee extends beyond aligned dims: both
        // x86 backends run fused masked tails with the same per-element
        // fold, so they agree exactly even where the fold is masked.
        if !(Backend::Avx512.is_available() && Backend::Avx2Fma.is_available()) {
            return;
        }
        let n = 40;
        let a = chain(n, 30);
        for d in [7usize, 20, 100, 385] {
            let x = feats(n, d, 0.4);
            let y = feats(n, d, 0.6);
            let (cols, vals) = a.row(5);
            let spec = KernelSpec::FALLBACK;
            let mut z2 = vec![0f32; d];
            let mut z5 = vec![0f32; d];
            embed_spec_kernel(Backend::Avx2Fma, spec)(
                x.row(5),
                cols,
                vals,
                &y,
                &mut z2,
                &SOp::Sigmoid,
            );
            embed_spec_kernel(Backend::Avx512, spec)(
                x.row(5),
                cols,
                vals,
                &y,
                &mut z5,
                &SOp::Sigmoid,
            );
            for k in 0..d {
                assert_eq!(z2[k].to_bits(), z5[k].to_bits(), "embed d={d} k={k}");
            }
        }
    }

    #[test]
    fn spec_batch_bit_identical_to_spec_row() {
        // Short rows (degree 5); the batch kernels must reproduce the
        // per-row kernel bit for bit, since hybrid's short class claims
        // bit-identity to the uniform path.
        let n = 24;
        let a = chain(n, 5);
        for d in [48usize, 96, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            for b in available() {
                for spec in candidate_specs(b.lanes(), d, true) {
                    let rows_in_batch = [2usize, 5, 9, 11];
                    let batch: Vec<GatheredRow<'_>> = rows_in_batch
                        .iter()
                        .enumerate()
                        .map(|(i, &u)| GatheredRow {
                            xu: x.row(u),
                            cols: a.row(u).0,
                            vals: a.row(u).1,
                            band_row: i,
                        })
                        .collect();
                    let mut band = vec![0f32; rows_in_batch.len() * d];
                    embed_spec_batch_kernel(b, spec)(&batch, &y, &mut band, &SOp::Sigmoid);
                    let mut spmm_band = vec![0f32; rows_in_batch.len() * d];
                    spmm_spec_batch_kernel(b, spec)(&batch, &y, &mut spmm_band);
                    for (i, &u) in rows_in_batch.iter().enumerate() {
                        let (cols, vals) = a.row(u);
                        let mut z_row = vec![0f32; d];
                        let kern = embed_spec_kernel(b, spec);
                        kern(x.row(u), cols, vals, &y, &mut z_row, &SOp::Sigmoid);
                        let label = spec.label();
                        assert_eq!(
                            &band[i * d..(i + 1) * d],
                            &z_row[..],
                            "embed {b} d={d} {label}"
                        );
                        let mut z_row = vec![0f32; d];
                        spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z_row);
                        let got = &spmm_band[i * d..(i + 1) * d];
                        assert_eq!(got, &z_row[..], "spmm {b} d={d} {label}");
                    }
                }
            }
        }
    }

    #[test]
    fn msg_fill_plus_span_sweep_bit_identical_to_spec_row() {
        // A heavy row (degree > every chunk depth exercises the row
        // kernel's chunked fold) computed as mega phases A + B must
        // match the spec row kernel bit for bit, for any span split.
        let n = 90;
        let a = chain(n, 80);
        for d in [48usize, 96] {
            let x = feats(n, d, 0.3);
            let y = feats(n, d, 0.7);
            let (cols, vals) = a.row(7);
            for b in available() {
                let spec = KernelSpec::default_for(b.lanes(), d);
                let mut z_row = vec![0f32; d];
                embed_spec_kernel(b, spec)(x.row(7), cols, vals, &y, &mut z_row, &SOp::Sigmoid);
                // Phase A: messages filled in two independent slices.
                let mut h = vec![0f32; cols.len()];
                let split = cols.len() / 3;
                let (h0, h1) = h.split_at_mut(split);
                let msg = embed_msg_kernel(b);
                msg(x.row(7), &cols[..split], &vals[..split], &y, &SOp::Sigmoid, h0);
                msg(x.row(7), &cols[split..], &vals[split..], &y, &SOp::Sigmoid, h1);
                // Phase B: every VLEN-aligned span split must agree.
                for spans in [vec![d], vec![d / 2, d / 2], vec![VLEN; d / VLEN]] {
                    let mut z = vec![0f32; d];
                    let mut off = 0;
                    for w in spans {
                        span_spec_kernel(b, spec)(cols, &h, &y, &mut z[off..off + w], off);
                        off += w;
                    }
                    assert_eq!(z, z_row, "embed mega {b} d={d}");
                }
                // SpMM: the values are the messages.
                let mut z_row = vec![0f32; d];
                spmm_spec_kernel(b, spec)(cols, vals, &y, &mut z_row);
                let mut z = vec![0f32; d];
                let (lo, hi) = z.split_at_mut(d / 2);
                span_spec_kernel(b, spec)(cols, vals, &y, lo, 0);
                span_spec_kernel(b, spec)(cols, vals, &y, hi, d / 2);
                assert_eq!(z, z_row, "spmm mega {b} d={d}");
            }
        }
    }

    #[test]
    fn span_spec_with_ragged_final_span_matches_row_kernel() {
        // Odd d split into spans: the last span absorbs the sub-VLEN
        // remainder. Phases A+B must reproduce the spec row kernel.
        let n = 90;
        let a = chain(n, 80);
        let d = 100;
        let x = feats(n, d, 0.3);
        let y = feats(n, d, 0.7);
        let (cols, vals) = a.row(7);
        let b = active_backend();
        let spec = KernelSpec::FALLBACK;
        let mut z_row = vec![0f32; d];
        embed_spec_kernel(b, spec)(x.row(7), cols, vals, &y, &mut z_row, &SOp::Sigmoid);
        let mut h = vec![0f32; cols.len()];
        embed_msg_kernel(b)(x.row(7), cols, vals, &y, &SOp::Sigmoid, &mut h);
        for spans in [vec![d], vec![48, 52], vec![96, 4]] {
            let mut z = vec![0f32; d];
            let mut off = 0;
            for w in spans {
                span_spec_kernel(b, spec)(cols, &h, &y, &mut z[off..off + w], off);
                off += w;
            }
            // Messages were filled by the same backend's dot, so the
            // fold per element matches the row kernel exactly.
            assert_eq!(z, z_row, "embed span d={d}");
        }
    }

    #[test]
    fn custom_sops_bit_identical_to_presets_on_every_backend() {
        // Every kernel family applies the SOP at the same point, so a
        // closure computing a preset's expression reproduces the preset
        // bit for bit — on every available backend, not only the
        // active one.
        use super::super::{SopBatchKernel, SopMsgKernel};
        use std::sync::Arc;
        fn bits(z: &[f32]) -> Vec<u32> {
            z.iter().map(|v| v.to_bits()).collect()
        }
        let sigmoid = SOp::Custom(Arc::new(|s, _| fusedmm_ops::sigmoid(s)));
        let scale = SOp::Custom(Arc::new(|s, _| 0.4 * s));
        let n = 80;
        let a = chain(n, 70);
        let spec = KernelSpec::FALLBACK;
        for d in [8usize, 20, 96] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            let (cols, vals) = a.row(3);
            let batch =
                [GatheredRow { xu: x.row(4), cols: &cols[..5], vals: &vals[..5], band_row: 0 }];
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                for (preset, custom) in [(SOp::Sigmoid, &sigmoid), (SOp::Scale(0.4), &scale)] {
                    let embed = matches!(preset, SOp::Sigmoid);
                    let (rows, batch_k, msg_k): (Vec<SopRowKernel>, SopBatchKernel, SopMsgKernel) =
                        if embed {
                            (
                                vec![embed_dyn_kernel(b), embed_spec_kernel(b, spec)],
                                embed_spec_batch_kernel(b, spec),
                                embed_msg_kernel(b),
                            )
                        } else {
                            (
                                vec![fr_dyn_kernel(b), fr_spec_kernel(b, spec)],
                                fr_spec_batch_kernel(b, spec),
                                fr_msg_kernel(b),
                            )
                        };
                    for (k, kern) in rows.into_iter().enumerate() {
                        let run = |sop: &SOp| {
                            let mut z = vec![0f32; d];
                            kern(x.row(3), cols, vals, &y, &mut z, sop);
                            z
                        };
                        assert_eq!(
                            bits(&run(&preset)),
                            bits(&run(custom)),
                            "{preset:?} row kernel {k} {b} d={d}"
                        );
                    }
                    let run_batch = |sop: &SOp| {
                        let mut band = vec![0f32; d];
                        batch_k(&batch, &y, &mut band, sop);
                        band
                    };
                    assert_eq!(
                        bits(&run_batch(&preset)),
                        bits(&run_batch(custom)),
                        "{preset:?} batch {b} d={d}"
                    );
                    let run_msg = |sop: &SOp| {
                        let mut h = vec![0f32; cols.len()];
                        msg_k(x.row(3), cols, vals, &y, sop, &mut h);
                        h
                    };
                    assert_eq!(
                        bits(&run_msg(&preset)),
                        bits(&run_msg(custom)),
                        "{preset:?} msg {b} d={d}"
                    );
                }
            }
        }
    }
}
