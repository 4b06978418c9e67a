//! Degree-aware hybrid execution for skewed graphs.
//!
//! Power-law degree distributions defeat a single row-shaped kernel:
//! the strip-mined kernel amortizes its per-row setup (loading `x_u`
//! panels, resolving the output slice) over the neighbor loop, so a
//! degree-2 row pays mostly overhead, while a hub row with a million
//! neighbors serializes an entire band on one thread no matter how
//! PART1D cuts the rest. This module classifies rows by degree once per
//! launch and runs each class through a kernel shaped for it (short and
//! strip share one storage-order band sweep so the CSR stream is walked
//! once; mega rows run as their own cooperative pass):
//!
//! * **short** (`0 < degree < short_max`) — gathered in storage order
//!   into batches that share one [`H_CHUNK`] message buffer and one
//!   SIMD sweep (the `embed_spec_batch_kernel` family);
//! * **strip** (everything between) — the plan-time specialized row
//!   kernels (see [`crate::genkern::table`]), running the shape the
//!   autotuner probed for this `(pattern, d, backend)`;
//! * **mega** (`degree ≥ max(mega_floor, nnz/parts)`) — each row is
//!   executed cooperatively: phase A fills the row's message vector in
//!   parallel column chunks, phase B folds *all* messages into
//!   VLEN-aligned output spans, one thread per span
//!   (`span_spec_kernel`).
//!
//! All three class kernels come from the specialized dispatch table,
//! whose masked-tail panels accept any `d ≥ 1` — so hybrid execution
//! also engages at odd dimensions the strip family rejects (the final
//! mega span absorbs the sub-VLEN remainder).
//!
//! Every class preserves the uniform kernels' per-output-element
//! accumulation order — a sequential left-fold over the neighbors in
//! row storage order — so the hybrid result is bit-identical to the
//! strip-mined baseline (asserted by the `genkern::strip` tests and the
//! repo-level property suite). The mega split is fixed by the span
//! plan, never by thread timing. Each pass records its own
//! [`KernelProfile`](crate::profile::KernelProfile) row under the
//! `hybrid-short` / `hybrid-strip` / `hybrid-mega` blocking labels.

use fusedmm_ops::OpSet;
use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::dispatch::Specialized;
use crate::driver::parallel_row_bands;
use crate::genkern::strip::H_CHUNK;
use crate::genkern::{
    embed_msg_kernel, embed_spec_batch_kernel, embed_spec_kernel, fr_msg_kernel,
    fr_spec_batch_kernel, fr_spec_kernel, span_spec_kernel, spmm_spec_batch_kernel,
    spmm_spec_kernel, tdist_msg_kernel, tdist_spec_batch_kernel, tdist_spec_kernel, GatheredRow,
    KernelSpec,
};
use crate::part::PartitionStrategy;
use crate::simd::{Backend, VLEN};

/// Column-chunk size for the mega-row message fill (phase A). Each
/// chunk is an independent SDDMM over a slice of the neighbor list, so
/// the value only trades scheduling overhead against load balance —
/// it never affects results.
const MSG_CHUNK: usize = 2048;

/// Phase-A message-fill shape (`xu`, neighbor slice, aligned edge
/// values, message slice); named so the SpMM arm can spell its absent
/// fill without a clippy type-complexity lint.
type MsgFill = fn(&[f32], &[usize], &[f32], &mut [f32]);

/// Degree thresholds for [`Blocking::Hybrid`](crate::Blocking::Hybrid).
///
/// The mega threshold is adaptive: a row is mega when its degree
/// reaches `max(mega_floor, nnz/parts)` — i.e. when one row alone is at
/// least a whole thread's fair share of the work, the situation where
/// PART1D degenerates to a single-threaded band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HybridConfig {
    /// Rows with `0 < degree < short_max` take the gathered batch
    /// kernel (capped internally at `H_CHUNK + 1` so one batch always
    /// fits the shared message buffer).
    pub short_max: usize,
    /// Lower bound on the mega threshold, so small test matrices do
    /// not classify ordinary rows as mega just because `nnz/parts` is
    /// tiny. Set it low (e.g. 32) to force the mega path in tests.
    pub mega_floor: usize,
}

impl Default for HybridConfig {
    fn default() -> Self {
        // short_max = VLEN/2: the measured crossover on AVX2. A row
        // whose neighbor count is below half a vector width of
        // messages pays more in per-row setup than in math — gathering
        // it (and skipping the output-row load, see `panel_overwrite`)
        // wins. Longer rows amortize the strip kernel's setup fine, and
        // routing them through the gather path shows up as overhead on
        // unskewed graphs (the skew-sweep bench's s = 0 guard).
        HybridConfig { short_max: crate::simd::VLEN / 2, mega_floor: 4096 }
    }
}

/// Run the three degree-class passes with the kernel shape `kspec`
/// (the autotuner's probed best for this `(pattern, d, backend)`).
/// Called by the dispatcher when the blocking resolved to the strip
/// or dyn level — the specialized table's kernels cover both.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    spec: Specialized,
    cfg: HybridConfig,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    backend: Backend,
    kspec: KernelSpec,
) -> Dense {
    let d = x.ncols();
    let parts = partitions.unwrap_or_else(rayon::current_num_threads).max(1);
    let short_cut = cfg.short_max.clamp(1, H_CHUNK + 1);
    let mega_min = cfg.mega_floor.max(a.nnz().div_ceil(parts)).max(short_cut);
    let sweep = span_spec_kernel(backend, kspec);

    match spec {
        Specialized::Embed | Specialized::Fr => {
            let (batch, strip, msg) = if spec == Specialized::Embed {
                (
                    embed_spec_batch_kernel(backend, kspec),
                    embed_spec_kernel(backend, kspec),
                    embed_msg_kernel(backend),
                )
            } else {
                (
                    fr_spec_batch_kernel(backend, kspec),
                    fr_spec_kernel(backend, kspec),
                    fr_msg_kernel(backend),
                )
            };
            let sop = &ops.sop;
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                short_cut,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |rows, band| batch(rows, y, band, sop),
                |u, zu| {
                    let (cols, vals) = a.row(u);
                    strip(x.row(u), cols, vals, y, zu, sop)
                },
                Some(|xu: &[f32], cols: &[usize], vals: &[f32], h: &mut [f32]| {
                    msg(xu, cols, vals, y, sop, h)
                }),
                sweep,
            )
        }
        Specialized::TDist => {
            let batch = tdist_spec_batch_kernel(backend, kspec);
            let strip = tdist_spec_kernel(backend, kspec);
            let msg = tdist_msg_kernel(backend);
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                short_cut,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |rows, band| batch(rows, y, band),
                |u, zu| {
                    let (cols, vals) = a.row(u);
                    strip(x.row(u), cols, vals, y, zu)
                },
                Some(|xu: &[f32], cols: &[usize], _vals: &[f32], h: &mut [f32]| {
                    msg(xu, cols, y, h)
                }),
                sweep,
            )
        }
        Specialized::Spmm => {
            let batch = spmm_spec_batch_kernel(backend, kspec);
            let strip = spmm_spec_kernel(backend, kspec);
            // SpMM's messages are the stored edge values: no phase A.
            let msg: Option<MsgFill> = None;
            run_passes(
                a,
                x,
                y,
                ops,
                d,
                short_cut,
                mega_min,
                parts,
                partitions,
                strategy,
                backend,
                |rows, band| batch(rows, y, band),
                |u, zu| {
                    let (cols, vals) = a.row(u);
                    strip(cols, vals, y, zu)
                },
                msg,
                sweep,
            )
        }
    }
}

/// Shared three-pass orchestration, generic over the pattern-specific
/// kernels. `msg_fill` is `None` for SpMM, whose message vector is the
/// row's stored values.
#[allow(clippy::too_many_arguments)]
fn run_passes<B, S, M>(
    a: &Csr,
    x: &Dense,
    y: &Dense,
    ops: &OpSet,
    d: usize,
    short_cut: usize,
    mega_min: usize,
    parts: usize,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    backend: Backend,
    flush_batch: B,
    strip_row: S,
    msg_fill: Option<M>,
    sweep: crate::genkern::SpanSweepKernel,
) -> Dense
where
    B: Fn(&[GatheredRow<'_>], &mut [f32]) + Sync,
    S: Fn(usize, &mut [f32]) + Sync,
    M: Fn(&[f32], &[usize], &[f32], &mut [f32]) + Sync,
{
    // One census pass over the row pointers — degrees are re-derived
    // from `rowptr` everywhere below (one subtraction on data the
    // kernel streams anyway) rather than materialized into a side
    // array, which would add a whole extra memory stream to the sweep.
    let (mut short_rows, mut short_edges) = (0usize, 0usize);
    let (mut strip_rows, mut strip_edges) = (0usize, 0usize);
    let (mut mega_rows, mut mega_edges) = (0usize, 0usize);
    for w in a.rowptr().windows(2) {
        let deg = w[1] - w[0];
        if deg == 0 {
            continue;
        }
        if deg < short_cut {
            short_rows += 1;
            short_edges += deg;
        } else if deg < mega_min {
            strip_rows += 1;
            strip_edges += deg;
        } else {
            mega_rows += 1;
            mega_edges += deg;
        }
    }

    let mut z = Dense::zeros(a.nrows(), d);

    // Short + strip classes run in ONE interleaved sweep per band, in
    // row-storage order. Separate per-class passes look cleaner but
    // walk the row-pointer/column/value stream twice with scattered
    // visits — adjacent rows of different classes share cache lines,
    // and the gaps defeat the hardware prefetcher on `x`, `z`, and the
    // CSR arrays — which measures ~5-10% slower on interleaved-degree
    // graphs. Here every array streams exactly like the uniform strip
    // pass: strip rows execute inline; short rows stage into a gather
    // batch that flushes when the next row would overflow the shared
    // message buffer (deferring a short row's write past a later strip
    // row touches disjoint output rows, so order across rows is free).
    // Batching never reorders the fold within a row, so each output row
    // stays bit-identical to strip.
    //
    // Profiling: flushes are timed individually (a batch is several
    // rows, so this is ~1% of the sweep) and the strip class gets the
    // band remainder — classification and gather staging are attributed
    // to strip. Per-class elapsed records the max across bands: the
    // slowest band, the same thing a per-pass wall clock would read
    // under PART1D.
    let short_ns = std::sync::atomic::AtomicU64::new(0);
    let strip_ns = std::sync::atomic::AtomicU64::new(0);
    parallel_row_bands(a, &mut z, partitions, strategy, |rows, band| {
        let start = rows.start;
        let band_t0 = std::time::Instant::now();
        let mut band_short_ns = 0u64;
        let mut gathered: Vec<GatheredRow<'_>> = Vec::with_capacity(H_CHUNK);
        let mut flush_timed = |gathered: &[GatheredRow<'_>], band: &mut [f32]| {
            let t0 = std::time::Instant::now();
            flush_batch(gathered, band);
            band_short_ns += t0.elapsed().as_nanos() as u64;
        };
        for u in rows {
            let (cols, vals) = a.row(u);
            let deg = cols.len();
            if deg == 0 || deg >= mega_min {
                continue;
            }
            if deg < short_cut {
                gathered.push(GatheredRow { xu: x.row(u), cols, vals, band_row: u - start });
                if gathered.len() == H_CHUNK {
                    flush_timed(&gathered, band);
                    gathered.clear();
                }
            } else {
                let i = u - start;
                strip_row(u, &mut band[i * d..(i + 1) * d]);
            }
        }
        if !gathered.is_empty() {
            flush_timed(&gathered, band);
        }
        let band_total = band_t0.elapsed().as_nanos() as u64;
        short_ns.fetch_max(band_short_ns, std::sync::atomic::Ordering::Relaxed);
        strip_ns.fetch_max(
            band_total.saturating_sub(band_short_ns),
            std::sync::atomic::Ordering::Relaxed,
        );
    });
    if short_rows > 0 {
        crate::profile::record_kernel(
            ops.pattern,
            d,
            backend,
            "hybrid-short",
            std::time::Duration::from_nanos(short_ns.into_inner()),
            short_rows,
            short_edges,
        );
    }
    // The strip row is always recorded, even when empty, so the profile
    // table shows the hybrid launch happened.
    crate::profile::record_kernel(
        ops.pattern,
        d,
        backend,
        "hybrid-strip",
        std::time::Duration::from_nanos(strip_ns.into_inner()),
        strip_rows,
        strip_edges,
    );

    // Pass 3: mega rows, one at a time, all threads cooperating.
    if mega_rows > 0 {
        let t0 = std::time::Instant::now();
        let panels = d / VLEN;
        let nspans = parts.min(panels).max(1);
        // At odd d the panels don't cover the row; the final span
        // absorbs the sub-VLEN remainder (the spec sweep's masked tail
        // finishes it, keeping the per-element fold order fixed).
        let rem = d - panels * VLEN;
        for u in 0..a.nrows() {
            if a.row_nnz(u) < mega_min {
                continue;
            }
            let (cols, vals) = a.row(u);
            // Phase A: fill the message vector in independent column
            // chunks (pure SDDMM, no cross-chunk dependency).
            let h_owned: Vec<f32>;
            let h: &[f32] = if let Some(msg) = &msg_fill {
                let xu = x.row(u);
                let mut buf = vec![0f32; cols.len()];
                rayon::scope(|s| {
                    let mut rest: &mut [f32] = &mut buf;
                    let mut off = 0usize;
                    while !rest.is_empty() {
                        let take = rest.len().min(MSG_CHUNK);
                        let (chunk, tail) = rest.split_at_mut(take);
                        let ccols = &cols[off..off + take];
                        let cvals = &vals[off..off + take];
                        s.spawn(move |_| msg(xu, ccols, cvals, chunk));
                        rest = tail;
                        off += take;
                    }
                });
                h_owned = buf;
                &h_owned
            } else {
                vals
            };
            // Phase B: each thread folds every message into its own
            // VLEN-aligned span of z_u. The span plan is a pure
            // function of (d, parts), so the per-element fold order —
            // all neighbors, storage order — never depends on timing.
            let zu = z.row_mut(u);
            rayon::scope(|s| {
                let mut rest = zu;
                let mut off = 0usize;
                for t in 0..nspans {
                    let mut w = (panels * (t + 1) / nspans - panels * t / nspans) * VLEN;
                    if t == nspans - 1 {
                        w += rem;
                    }
                    if w == 0 {
                        continue;
                    }
                    let (span, tail) = rest.split_at_mut(w);
                    s.spawn(move |_| sweep(cols, h, y, span, off));
                    rest = tail;
                    off += w;
                }
            });
        }
        crate::profile::record_kernel(
            ops.pattern,
            d,
            backend,
            "hybrid-mega",
            t0.elapsed(),
            mega_rows,
            mega_edges,
        );
    }

    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{fusedmm_opt_with, Blocking};
    use fusedmm_sparse::coo::{Coo, Dedup};

    /// A skewed graph: one hub adjacent to everyone, a mid-degree
    /// block, and a long tail of degree-1..3 rows — plus empty rows.
    fn skewed(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 0.5 + (v % 7) as f32 * 0.1);
        }
        for u in 1..n / 4 {
            for k in 1..=12usize {
                c.push(u, (u * 3 + k * 5) % n, 1.0 + k as f32 * 0.05);
            }
        }
        for u in n / 4..n - n / 8 {
            for k in 1..=(u % 3 + 1) {
                c.push(u, (u + k * 11) % n, 0.75);
            }
        }
        // rows in n-n/8..n stay empty
        c.to_csr(Dedup::Last)
    }

    fn feats(n: usize, d: usize, seed: f32) -> Dense {
        Dense::from_fn(n, d, |r, c| ((r * 17 + c * 3) as f32 * 0.013 + seed).sin() * 0.4)
    }

    #[test]
    fn hybrid_bit_identical_to_strip_mined_all_patterns() {
        let n = 96;
        let a = skewed(n);
        let cfg = HybridConfig { short_max: 8, mega_floor: 32 };
        for d in [48usize, 96] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            for ops in [
                OpSet::sigmoid_embedding(None),
                OpSet::fr_model(0.4),
                OpSet::tdist_embedding(),
                OpSet::gcn(),
            ] {
                for parts in [1usize, 2, 4] {
                    let base = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::StripMined,
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    let hybrid = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::Hybrid(cfg),
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert_eq!(
                        base.as_slice(),
                        hybrid.as_slice(),
                        "{:?} d={d} parts={parts} not bit-identical",
                        ops.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn star_graph_takes_the_mega_path_and_matches() {
        // One row holds every edge: with a low mega floor the hub is
        // mega-class and split across spans.
        let n = 300;
        let mut c = Coo::new(n, n);
        for v in 1..n {
            c.push(0, v, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        let d = 96;
        let x = feats(n, d, 0.1);
        let y = feats(n, d, 0.9);
        let cfg = HybridConfig { short_max: 8, mega_floor: 32 };
        let ops = OpSet::sigmoid_embedding(None);
        crate::profile::reset_kernel_profiles();
        let base = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &ops,
            Blocking::StripMined,
            Some(4),
            PartitionStrategy::NnzBalanced,
        );
        let hybrid = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &ops,
            Blocking::Hybrid(cfg),
            Some(4),
            PartitionStrategy::NnzBalanced,
        );
        assert_eq!(base.as_slice(), hybrid.as_slice());
        let labels: Vec<&'static str> =
            crate::profile::kernel_profiles().iter().map(|p| p.blocking).collect();
        assert!(labels.contains(&"hybrid-mega"), "mega pass not profiled: {labels:?}");
    }

    #[test]
    fn hybrid_engages_at_odd_dims_and_matches_specialized() {
        // Odd d resolves to the dyn level, where hybrid now runs the
        // specialized table's kernels. All three classes preserve the
        // per-element fold order, so the result must be bit-identical
        // to the uniform specialized plan with the same shape.
        let n = 96;
        let a = skewed(n);
        let cfg = HybridConfig { short_max: 8, mega_floor: 32 };
        for d in [20usize, 100] {
            let x = feats(n, d, 0.2);
            let y = feats(n, d, 0.8);
            for ops in [OpSet::sigmoid_embedding(None), OpSet::gcn()] {
                let kspec = crate::autotune::global_tuner().spec_for(&ops, d);
                for parts in [1usize, 3] {
                    let base = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::Specialized(kspec),
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    let hybrid = fusedmm_opt_with(
                        &a,
                        &x,
                        &y,
                        &ops,
                        Blocking::Hybrid(cfg),
                        Some(parts),
                        PartitionStrategy::NnzBalanced,
                    );
                    assert_eq!(
                        base.as_slice(),
                        hybrid.as_slice(),
                        "{:?} d={d} parts={parts} not bit-identical",
                        ops.pattern
                    );
                }
            }
        }
    }

    #[test]
    fn empty_matrix_is_all_zero() {
        let a = Csr::empty(10, 10);
        let x = feats(10, 48, 0.1);
        let y = feats(10, 48, 0.2);
        let z = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::gcn(),
            Blocking::Hybrid(HybridConfig::default()),
            Some(2),
            PartitionStrategy::NnzBalanced,
        );
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn profile_records_per_class_rows() {
        let n = 64;
        let a = skewed(n);
        let x = feats(n, 48, 0.3);
        let y = feats(n, 48, 0.6);
        crate::profile::reset_kernel_profiles();
        let _ = fusedmm_opt_with(
            &a,
            &x,
            &y,
            &OpSet::gcn(),
            Blocking::Hybrid(HybridConfig { short_max: 8, mega_floor: 16 }),
            Some(2),
            PartitionStrategy::NnzBalanced,
        );
        let profiles = crate::profile::kernel_profiles();
        let total_edges: u64 =
            profiles.iter().filter(|p| p.blocking.starts_with("hybrid-")).map(|p| p.edges).sum();
        assert_eq!(total_edges, a.nnz() as u64, "classes must partition the edges: {profiles:?}");
    }
}
