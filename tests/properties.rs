//! Property-based tests on the substrate invariants DESIGN.md lists:
//! format round-trips, PART1D balance, SIMD-vs-scalar agreement, and
//! generator guarantees.

use proptest::prelude::*;

use fusedmm::kernel::part::{Partition, PartitionStrategy};
use fusedmm::kernel::simd;
use fusedmm::prelude::*;
use fusedmm::sparse::slice::slice_rows;

/// Strategy: a random COO matrix with shape up to 40×40.
fn arb_coo() -> impl Strategy<Value = Coo> {
    (2usize..40, 2usize..40).prop_flat_map(|(r, c)| {
        proptest::collection::vec((0..r, 0..c, -5.0f32..5.0), 0..120)
            .prop_map(move |entries| Coo::from_entries(r, c, entries).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn csr_coo_round_trip(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        let back = csr.to_coo().to_csr(Dedup::Sum);
        prop_assert_eq!(&csr, &back);
    }

    #[test]
    fn csc_round_trip(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        prop_assert_eq!(&csr.to_csc().to_csr(), &csr);
    }

    #[test]
    fn transpose_involutive(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        prop_assert_eq!(&csr.transpose().transpose(), &csr);
    }

    #[test]
    fn rows_sorted_and_in_range(coo in arb_coo()) {
        let csr = coo.to_csr(Dedup::Sum);
        for u in 0..csr.nrows() {
            let (cols, _) = csr.row(u);
            prop_assert!(cols.windows(2).all(|w| w[0] < w[1]), "row {u} not strictly sorted");
            prop_assert!(cols.iter().all(|&c| c < csr.ncols()));
        }
    }

    #[test]
    fn dedup_sum_preserves_total_mass(coo in arb_coo()) {
        let raw_sum: f64 = coo.entries().iter().map(|&(_, _, v)| v as f64).sum();
        let csr = coo.to_csr(Dedup::Sum);
        let csr_sum: f64 = csr.values().iter().map(|&v| v as f64).sum();
        prop_assert!((raw_sum - csr_sum).abs() < 1e-3);
    }

    #[test]
    fn part1d_covers_rows_and_balances(
        coo in arb_coo(),
        parts in 1usize..12,
    ) {
        let csr = coo.to_csr(Dedup::Sum);
        let p = Partition::part1d(&csr, parts, PartitionStrategy::NnzBalanced);
        // coverage: contiguous, complete
        prop_assert_eq!(p.boundaries()[0], 0);
        prop_assert_eq!(*p.boundaries().last().unwrap(), csr.nrows());
        let covered: usize = (0..p.len()).map(|i| p.rows(i).len()).sum();
        prop_assert_eq!(covered, csr.nrows());
        // balance: each part within ideal + heaviest row
        if csr.nnz() > 0 {
            let ideal = csr.nnz() as f64 / p.len() as f64;
            for i in 0..p.len() {
                prop_assert!(
                    p.part_nnz(&csr, i) as f64 <= ideal + csr.max_degree() as f64 + 1.0
                );
            }
        }
    }

    #[test]
    fn row_slice_preserves_entries(coo in arb_coo(), pick in proptest::collection::vec(0usize..1000, 1..10)) {
        let csr = coo.to_csr(Dedup::Sum);
        let vertices: Vec<usize> = pick.into_iter().map(|p| p % csr.nrows()).collect();
        let mb = slice_rows(&csr, &vertices);
        for (i, &u) in vertices.iter().enumerate() {
            prop_assert_eq!(mb.adj.row(i), csr.row(u), "slice row {} != source row {}", i, u);
        }
    }

    #[test]
    fn simd_dot_axpy_sqdist_match_scalar(
        x in proptest::collection::vec(-3.0f32..3.0, 1..64),
        seed in 0u64..100,
    ) {
        let n = x.len();
        let y: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 13) as f32 * 0.3 - 1.5).collect();
        let dot_scalar: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert!((simd::dot(&x, &y) - dot_scalar).abs() < 1e-2);

        let sq_scalar: f32 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        prop_assert!((simd::sqdist(&x, &y) - sq_scalar).abs() < 1e-2);

        let mut z = vec![0.5f32; n];
        let mut z_ref = z.clone();
        simd::axpy(0.7, &y, &mut z);
        for (zr, &yi) in z_ref.iter_mut().zip(&y) { *zr += 0.7 * yi; }
        for (a, b) in z.iter().zip(&z_ref) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn erdos_renyi_invariants(n in 4usize..60, seed in 0u64..50) {
        let m = n; // sparse enough
        let g = erdos_renyi(n, m, seed);
        prop_assert_eq!(g.nnz(), 2 * m);
        for (r, c, v) in g.iter() {
            prop_assert_ne!(r, c);
            prop_assert_eq!(v, 1.0);
            prop_assert_eq!(g.get(c, r), Some(1.0));
        }
    }

    #[test]
    fn rmat_respects_bounds(n in 16usize..200, seed in 0u64..50) {
        let g = rmat(&RmatConfig::new(n, 2 * n).with_seed(seed));
        prop_assert_eq!(g.nrows(), n);
        for (r, c, _) in g.iter() {
            prop_assert!(r < n && c < n && r != c);
        }
    }

    #[test]
    fn sigmoid_lut_error_bound(resolution in 64usize..4096) {
        let lut = SigmoidLut::new(8.0, resolution);
        // nearest-entry lookup error <= step * max-slope (1/4) + eps
        let step = 16.0 / (resolution - 1) as f32;
        prop_assert!(lut.max_error_within_bound() <= step * 0.25 + 1e-4);
    }
}

#[test]
fn matrix_market_round_trip_on_random_graph() {
    use fusedmm::sparse::io::{read_matrix_market, write_matrix_market};
    let g = rmat(&RmatConfig::new(64, 200).with_seed(8));
    let mut buf = Vec::new();
    write_matrix_market(&mut buf, &g).unwrap();
    let back = read_matrix_market(&buf[..]).unwrap().to_csr(Dedup::Sum);
    assert_eq!(back, g);
}

// ---------------------------------------------------------------------------
// SIMD backend and kernel blocking agreement (the ISA dispatch sweep)
// ---------------------------------------------------------------------------

/// Serving-typical dimensions (8/24/48/96/192/384), all multiples of
/// 8: on 16-lane backends d = 8/24/... end in a masked half-register
/// tail, so these cases double as the AVX-512 agreement sweep when
/// AVX-512 is the active backend.
const SWEEP_DIMS: [usize; 6] = [8, 24, 48, 96, 192, 384];

/// Odd dimensions: the kernel table finishes them in a fused
/// masked-tail panel, the dyn level in an unfused scalar tail.
const ODD_DIMS: [usize; 2] = [7, 100];

/// Dimensions of the one-kernel-family bit-identity sweep: the small
/// dims the const-dimension kernels used to own, an odd dim, and the
/// Force2Vec/Table VIII dimension.
const BIT_DIMS: [usize; 6] = [8, 16, 32, 64, 100, 128];

fn sweep_features(n: usize, d: usize, seed: u64) -> Dense {
    Dense::from_fn(n, d, |r, c| (((r * 131 + c * 17) as f32 + seed as f32) * 0.013).sin() * 0.3)
}

/// Clamp an arbitrary COO into a 40×40 square with positive weights —
/// the graph shape the kernel-agreement sweeps run on.
fn square_graph(coo: &Coo) -> Csr {
    square_coo(coo).to_csr(Dedup::Sum)
}

fn square_coo(coo: &Coo) -> Coo {
    let mut square = Coo::new(40, 40);
    for &(r, c, v) in coo.entries() {
        if r < 40 && c < 40 {
            square.push(r, c, v.abs().clamp(0.1, 1.0));
        }
    }
    square
}

/// [`square_graph`] plus a hub: row 0 links to every column with
/// distinct weights. Launched with [`HUB_PARTS`] partitions under
/// [`HUB_HYBRID`], the hub's degree (40) reaches the mega threshold
/// (`max(16, nnz / 8)`, and nnz ≤ 160), so hybrid execution takes the
/// split-mega-row path: message fill, then span sweeps.
fn hub_graph(coo: &Coo) -> Csr {
    let mut hub = square_coo(coo);
    for c in 0..40 {
        hub.push(0, c, 0.2 + (c % 9) as f32 * 0.1);
    }
    hub.to_csr(Dedup::Sum)
}

const HUB_PARTS: usize = 8;
const HUB_HYBRID: HybridConfig = HybridConfig { short_max: 8, mega_floor: 16 };

/// Operator sets with user-defined scaling ops that run on the SIMD
/// embedding and FR kernels, each with its agreement tolerance:
/// Force2Vec's positive term, an edge-weighted SOP (the kernels must
/// hand `a_uv` to the SOP; the sweep graphs carry weights in
/// [0.1, 1]), and the FR-layout inverse-square repulsion.
fn custom_sop_opsets() -> Vec<(OpSet, f32)> {
    use std::sync::Arc;
    let f2v_pos = SOp::Custom(Arc::new(|s, _| fusedmm::ops::sigmoid(s) - 1.0));
    let repulse = SOp::Custom(Arc::new(|s, _| 0.05 / (s * s + 1e-3)));
    vec![
        (OpSet::custom(VOp::Mul, ROp::Sum, f2v_pos, MOp::Mul, AOp::Sum), 1e-5),
        (OpSet::custom(VOp::Mul, ROp::Sum, SOp::ScaleByEdge, MOp::Mul, AOp::Sum), 1e-5),
        // sqrt amplifies association differences near zero
        (OpSet::custom(VOp::Sub, ROp::Norm, SOp::ScaleByEdge, MOp::Mul, AOp::Sum), 1e-4),
        (OpSet::custom(VOp::Sub, ROp::Norm, repulse, MOp::Mul, AOp::Sum), 1e-4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn simd_backends_match_scalar_within_1e5(seed in 0u64..500) {
        use fusedmm::kernel::simd::{axpy_with, dot_with, sqdist_with};
        for d in SWEEP_DIMS.into_iter().chain(ODD_DIMS) {
            let x: Vec<f32> =
                (0..d).map(|i| (((i as u64 * 29 + seed) % 97) as f32 * 0.01).sin() * 0.5).collect();
            let y: Vec<f32> =
                (0..d).map(|i| (((i as u64 * 43 + seed) % 89) as f32 * 0.011).cos() * 0.5).collect();
            let dot_ref = dot_with(Backend::Scalar, &x, &y);
            let sq_ref = sqdist_with(Backend::Scalar, &x, &y);
            for &b in Backend::ALL {
                if !b.is_available() {
                    continue;
                }
                prop_assert!((dot_with(b, &x, &y) - dot_ref).abs() < 1e-5, "dot {b} d={d}");
                prop_assert!((sqdist_with(b, &x, &y) - sq_ref).abs() < 1e-5, "sqdist {b} d={d}");
                let mut z = vec![0.1f32; d];
                let mut z_ref = vec![0.1f32; d];
                axpy_with(b, 0.8, &y, &mut z);
                axpy_with(Backend::Scalar, 0.8, &y, &mut z_ref);
                for k in 0..d {
                    prop_assert!((z[k] - z_ref[k]).abs() < 1e-5, "axpy {b} d={d} lane {k}");
                }
            }
        }
    }

    #[test]
    fn blocking_levels_agree_across_serving_dims(coo in arb_coo(), seed in 0u64..100) {
        use fusedmm::kernel::{fusedmm_opt_with, global_tuner};
        let a = square_graph(&coo);
        for d in SWEEP_DIMS {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            let presets = [
                (OpSet::sigmoid_embedding(None), 1e-5f32),
                (OpSet::gcn(), 1e-5),
                (OpSet::tdist_embedding(), 1e-5),
                // sqrt amplifies association differences near zero
                (OpSet::fr_model(0.4), 1e-4),
            ];
            for (ops, tol) in presets.into_iter().chain(custom_sop_opsets()) {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                // Auto runs the table's default shape, the tuner its
                // probed best shape.
                let blockings = [Blocking::Auto, Blocking::DynStrips, global_tuner().choose(&ops, d)];
                for blocking in blockings {
                    let z = fusedmm_opt_with(
                        &a, &x, &y, &ops, blocking, Some(3), PartitionStrategy::NnzBalanced,
                    );
                    prop_assert!(
                        z.max_abs_diff(&reference) < tol * scale,
                        "{:?} {:?} d={}: diff {}",
                        ops.pattern, blocking, d, z.max_abs_diff(&reference)
                    );
                }
            }
        }
    }

    /// The plan-time specialized table and the hybrid executor accept
    /// every dimension — including odd ones — and agree with the naive
    /// reference for every candidate shape on the active (on this
    /// machine: widest available) backend.
    #[test]
    fn specialized_table_and_hybrid_cover_odd_dims(coo in arb_coo(), seed in 0u64..100) {
        use fusedmm::kernel::fusedmm_opt_with;
        use fusedmm::kernel::genkern::candidate_specs;
        use fusedmm::kernel::simd::active_backend;
        let a = square_graph(&coo);
        let hub = hub_graph(&coo);
        let lanes = active_backend().lanes();
        for d in SWEEP_DIMS.into_iter().chain(ODD_DIMS) {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            let presets = [
                (OpSet::sigmoid_embedding(None), 1e-5f32),
                (OpSet::gcn(), 1e-5),
                (OpSet::fr_model(0.4), 1e-4),
            ];
            for (ops, tol) in presets.into_iter().chain(custom_sop_opsets()) {
                let reference = fusedmm_reference(&a, &x, &y, &ops);
                let scale = 1.0 + reference.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let mut blockings: Vec<Blocking> = candidate_specs(lanes, d, true)
                    .into_iter()
                    .map(Blocking::Specialized)
                    .collect();
                // Hybrid routes through the same specialized shapes per
                // degree class (short/strip/mega) at every d, so odd d
                // exercises its masked tails.
                blockings.push(Blocking::Hybrid(HybridConfig::default()));
                for blocking in blockings {
                    let z = fusedmm_opt_with(
                        &a, &x, &y, &ops, blocking, Some(3), PartitionStrategy::NnzBalanced,
                    );
                    prop_assert!(
                        z.max_abs_diff(&reference) < tol * scale,
                        "{:?} {:?} d={}: diff {}",
                        ops.pattern, blocking, d, z.max_abs_diff(&reference)
                    );
                }
                // The hub row runs as a split mega row: its messages come
                // from the message-fill kernels, which see the edge values.
                let hub_ref = fusedmm_reference(&hub, &x, &y, &ops);
                let hub_scale = 1.0 + hub_ref.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let z = fusedmm_opt_with(
                    &hub, &x, &y, &ops, Blocking::Hybrid(HUB_HYBRID), Some(HUB_PARTS),
                    PartitionStrategy::NnzBalanced,
                );
                prop_assert!(
                    z.max_abs_diff(&hub_ref) < tol * hub_scale,
                    "{:?} hybrid mega d={}: diff {}",
                    ops.pattern, d, z.max_abs_diff(&hub_ref)
                );
            }
        }
    }

    /// One kernel family: every entry point that runs a recognized
    /// kernel shape — `fusedmm_opt` (`Auto`, the table's static default
    /// shape), the tuned `fusedmm`, a prepared `Plan`, default `Hybrid`,
    /// and every candidate shape of the table — computes the same bits,
    /// for the four preset shapes and a user-defined SOP, at the small
    /// dims that used to run their own const kernels and at aligned and
    /// odd serving dims.
    #[test]
    fn every_entry_point_bit_identical_on_the_kernel_table(coo in arb_coo(), seed in 0u64..100) {
        use std::sync::Arc;
        use fusedmm::kernel::genkern::candidate_specs;
        use fusedmm::kernel::simd::active_backend;
        use fusedmm::kernel::{fusedmm_opt, fusedmm_opt_with, specialize, Plan, Specialized};
        let a = square_graph(&coo);
        let f2v_pos = SOp::Custom(Arc::new(|s, _| fusedmm::ops::sigmoid(s) - 1.0));
        let opsets = [
            OpSet::sigmoid_embedding(None),
            OpSet::fr_model(0.4),
            OpSet::tdist_embedding(),
            OpSet::gcn(),
            OpSet::custom(VOp::Mul, ROp::Sum, f2v_pos, MOp::Mul, AOp::Sum),
        ];
        let bits = |z: &Dense| z.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for d in BIT_DIMS {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            for ops in &opsets {
                let auto = bits(&fusedmm_opt(&a, &x, &y, ops));
                let sddmm = specialize(ops) != Some(Specialized::Spmm);
                let specs = candidate_specs(active_backend().for_dim(d).lanes(), d, sddmm);
                let mut runs = vec![
                    ("fusedmm".to_string(), fusedmm(&a, &x, &y, ops)),
                    ("plan".to_string(), Plan::prepare(ops, d).execute(&a, &x, &y, ops)),
                ];
                let forced = [Blocking::Hybrid(HybridConfig::default())]
                    .into_iter()
                    .chain(specs.into_iter().map(Blocking::Specialized));
                for blocking in forced {
                    let z = fusedmm_opt_with(
                        &a, &x, &y, ops, blocking, Some(3), PartitionStrategy::NnzBalanced,
                    );
                    runs.push((format!("{blocking:?}"), z));
                }
                for (name, z) in &runs {
                    prop_assert!(
                        bits(z) == auto,
                        "{:?} {} d={}: not bit-identical to fusedmm_opt", ops.pattern, name, d
                    );
                }
            }
        }
    }

    /// A user-defined SOP evaluating the same expression as a preset
    /// runs at the same point of the same fold: `custom(MUL, RSUM,
    /// |s| σ(s), MUL, ASUM)` and `custom(SUB, NORM, SCAL(α), MUL, ASUM)`
    /// are bit-identical to the sigmoid-embedding and FR presets at
    /// every blocking level (on the active backend; CI runs the suite
    /// under each forced backend).
    #[test]
    fn custom_scalar_ops_bit_identical_to_presets(coo in arb_coo(), seed in 0u64..100) {
        use std::sync::Arc;
        use fusedmm::kernel::fusedmm_opt_with;
        use fusedmm::kernel::genkern::candidate_specs;
        use fusedmm::kernel::simd::active_backend;
        let a = hub_graph(&coo);
        let sigmoid = SOp::Custom(Arc::new(|s, _| fusedmm::ops::sigmoid(s)));
        let pairs = [
            (
                OpSet::sigmoid_embedding(None),
                OpSet::custom(VOp::Mul, ROp::Sum, sigmoid, MOp::Mul, AOp::Sum),
            ),
            (
                OpSet::fr_model(0.4),
                OpSet::custom(VOp::Sub, ROp::Norm, SOp::Scale(0.4), MOp::Mul, AOp::Sum),
            ),
        ];
        for d in SWEEP_DIMS.into_iter().chain(ODD_DIMS) {
            let x = sweep_features(40, d, seed);
            let y = sweep_features(40, d, seed + 7);
            let mut blockings = vec![
                Blocking::Auto,
                Blocking::DynStrips,
                Blocking::Generic,
                Blocking::Hybrid(HybridConfig::default()),
                Blocking::Hybrid(HUB_HYBRID),
            ];
            blockings.extend(
                candidate_specs(active_backend().lanes(), d, true)
                    .into_iter()
                    .map(Blocking::Specialized),
            );
            for (preset, custom) in &pairs {
                for &blocking in &blockings {
                    let run = |ops: &OpSet| {
                        fusedmm_opt_with(
                            &a, &x, &y, ops, blocking, Some(HUB_PARTS),
                            PartitionStrategy::NnzBalanced,
                        )
                    };
                    let (zp, zc) = (run(preset), run(custom));
                    prop_assert!(
                        zp.as_slice().iter().map(|v| v.to_bits())
                            .eq(zc.as_slice().iter().map(|v| v.to_bits())),
                        "{:?} {:?} d={}: custom SOP not bit-identical to the preset",
                        preset.pattern, blocking, d
                    );
                }
            }
        }
    }
}

#[test]
fn active_backend_is_reported_and_available() {
    let report = fusedmm::kernel::cpu_features();
    assert!(report.backend.is_available());
    // FUSEDMM_FORCE_SCALAR must pin the scalar backend (exercised as a
    // dedicated CI matrix arm; here we only check consistency).
    if report.forced_scalar {
        assert_eq!(report.backend, Backend::Scalar);
    }
}
