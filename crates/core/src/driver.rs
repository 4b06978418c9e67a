//! Shared thread-parallel driver: PART1D + pooled fork-join over row bands.
//!
//! Algorithm 1 lines 2–7: partition `A` (and with it `X` and `Z`) into
//! `t` parts, then process parts in parallel. Threads concurrently read
//! `Y` but each writes only its own contiguous band of `Z`, so no
//! synchronization is needed — expressed in Rust by handing each task a
//! disjoint `&mut` slice of `Z`'s backing storage. The tasks run on the
//! persistent rayon worker team, the counterpart of the paper's OpenMP
//! team, and the calling thread runs one band itself while it waits.
//! A launch too small to pay for handing a band to a worker runs
//! inline as one band ([`INLINE_GRAIN`]).

use std::ops::Range;

use fusedmm_sparse::csr::Csr;
use fusedmm_sparse::dense::Dense;

use crate::part::{Partition, PartitionStrategy};

/// Launches with `nnz · d` below this run inline as one band when the
/// caller leaves the partition count to the driver. Measured on a
/// 2-vCPU AVX-512 guest (sigmoid embedding over row subsets of a
/// degree-8 RMAT graph, d = 64 and 128, spec and strip kernels): one
/// band runs at 0.3–0.5 ns per `nnz · d`, and handing a second band to
/// a parked worker adds 3–18 µs of wall time and 4–22 µs of CPU time
/// (an empty two-job scope alone: 2–5 µs wall, 4–8 µs CPU). Up to
/// 64 Ki, two bands were slower than one in wall and CPU time in every
/// run; from 192 Ki on they were faster in wall time in most runs.
pub const INLINE_GRAIN: usize = 64 * 1024;

/// Execute `body(rows, z_band)` for every non-empty part of a 1D
/// partition of `a`, in parallel on the rayon worker team. `z_band` is
/// the mutable sub-slice of `z` covering exactly `rows` (row-major, so
/// `z_band.len() == rows.len() * z.ncols()`). Every row is written by
/// exactly one call.
///
/// `partitions` defaults (when `None`) to the current thread count, as
/// in the paper where `t` parts feed `t` OpenMP threads — or to one
/// part when `a.nnz() * z.ncols()` is below [`INLINE_GRAIN`]. An
/// explicit `Some(k)` is always cut into `k` parts.
pub fn parallel_row_bands<F>(
    a: &Csr,
    z: &mut Dense,
    partitions: Option<usize>,
    strategy: PartitionStrategy,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    assert_eq!(z.nrows(), a.nrows(), "Z must have one row per row of A");
    let d = z.ncols();
    let t = match partitions {
        Some(k) => k.max(1),
        None if a.nnz().saturating_mul(d) < INLINE_GRAIN => 1,
        None => rayon::current_num_threads().max(1),
    };
    let part = Partition::part1d(a, t, strategy);

    // Carve Z into disjoint bands following the partition boundaries,
    // leaving out the empty trailing parts `part1d` pads in.
    let mut bands: Vec<(Range<usize>, &mut [f32])> = Vec::with_capacity(part.len());
    let mut rest: &mut [f32] = z.as_mut_slice();
    for i in 0..part.len() {
        let rows = part.rows(i);
        let (band, tail) = rest.split_at_mut(rows.len() * d);
        if !rows.is_empty() {
            bands.push((rows, band));
        }
        rest = tail;
    }
    debug_assert!(rest.is_empty());

    // The first band runs on this thread, the rest on the pool.
    let mut bands = bands.into_iter();
    let Some((rows0, band0)) = bands.next() else { return };
    if bands.len() == 0 {
        return body(rows0, band0);
    }
    rayon::scope(|scope| {
        for (rows, band) in bands {
            let body = &body;
            scope.spawn(move |_| body(rows, band));
        }
        body(rows0, band0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusedmm_sparse::coo::{Coo, Dedup};

    fn ring(n: usize) -> Csr {
        let mut c = Coo::new(n, n);
        for u in 0..n {
            c.push(u, (u + 1) % n, 1.0);
        }
        c.to_csr(Dedup::Last)
    }

    #[test]
    fn bands_cover_all_rows_exactly_once() {
        let a = ring(37);
        let mut z = Dense::zeros(37, 4);
        parallel_row_bands(&a, &mut z, Some(5), PartitionStrategy::NnzBalanced, |rows, band| {
            assert_eq!(band.len(), rows.len() * 4);
            for (i, _r) in rows.enumerate() {
                for k in 0..4 {
                    band[i * 4 + k] += 1.0;
                }
            }
        });
        assert!(z.as_slice().iter().all(|&v| v == 1.0), "every cell touched exactly once");
    }

    #[test]
    fn band_offsets_match_rows() {
        let a = ring(16);
        let mut z = Dense::zeros(16, 2);
        parallel_row_bands(&a, &mut z, Some(4), PartitionStrategy::NnzBalanced, |rows, band| {
            for (i, r) in rows.enumerate() {
                band[i * 2] = r as f32;
            }
        });
        for r in 0..16 {
            assert_eq!(z.get(r, 0), r as f32);
        }
    }

    #[test]
    fn single_partition_runs_inline() {
        let a = ring(8);
        let mut z = Dense::zeros(8, 1);
        parallel_row_bands(&a, &mut z, Some(1), PartitionStrategy::RowBalanced, |rows, band| {
            assert_eq!(rows, 0..8);
            band.fill(2.0);
        });
        assert!(z.as_slice().iter().all(|&v| v == 2.0));
    }

    /// Row ranges `body` was called with, in row order.
    fn calls(a: &Csr, d: usize, partitions: Option<usize>) -> Vec<Range<usize>> {
        let seen = std::sync::Mutex::new(Vec::new());
        let mut z = Dense::zeros(a.nrows(), d);
        parallel_row_bands(a, &mut z, partitions, PartitionStrategy::NnzBalanced, |rows, band| {
            band.fill(1.0);
            seen.lock().unwrap().push(rows);
        });
        assert!(z.as_slice().iter().all(|&v| v == 1.0), "every row written");
        let mut seen = seen.into_inner().unwrap();
        seen.sort_by_key(|r| r.start);
        seen
    }

    #[test]
    fn small_launch_runs_inline_as_one_band() {
        let (n, d) = (64, 8);
        let a = ring(n);
        assert!(a.nnz() * d < INLINE_GRAIN);
        let wide = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        assert_eq!(wide.install(|| calls(&a, d, None)), vec![0..n]);
    }

    #[test]
    fn large_launch_gets_one_band_per_thread() {
        let (n, d) = (4096, 32);
        let a = ring(n);
        assert!(a.nnz() * d >= INLINE_GRAIN);
        let wide = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let bands = wide.install(|| calls(&a, d, None));
        assert_eq!(bands.len(), 4);
        assert_eq!(bands.first().unwrap().start, 0);
        assert_eq!(bands.last().unwrap().end, n);
    }

    #[test]
    fn explicit_partition_count_is_honoured_below_the_grain() {
        let a = ring(64);
        for k in [2, 3, 7] {
            assert_eq!(calls(&a, 1, Some(k)).len(), k, "Some({k})");
        }
    }

    #[test]
    fn empty_padded_parts_are_not_queued() {
        // All edges sit in the last row, so NnzBalanced places no cut
        // and pads three empty parts after the one that holds every row.
        let mut c = Coo::new(6, 6);
        for v in 0..6 {
            c.push(5, v, 1.0);
        }
        let a = c.to_csr(Dedup::Last);
        let part = Partition::part1d(&a, 4, PartitionStrategy::NnzBalanced);
        assert_eq!(part.boundaries(), &[0, 6, 6, 6, 6]);
        assert_eq!(calls(&a, 2, Some(4)), vec![0..6]);
    }

    #[test]
    #[should_panic(expected = "one row per row")]
    fn shape_mismatch_panics() {
        let a = ring(4);
        let mut z = Dense::zeros(3, 1);
        parallel_row_bands(&a, &mut z, None, PartitionStrategy::NnzBalanced, |_, _| {});
    }
}
