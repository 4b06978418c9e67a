//! User-defined operations: the flexibility half of the paper's pitch.
//!
//! FusedMM's five steps accept arbitrary user functions (the C library
//! takes function pointers; here, closures). This example builds two
//! operator sets no library ships out of the box and runs both through
//! the same entry point:
//!
//! 1. a *t-distribution* similarity kernel (the Force2Vec t-variant:
//!    `h = 1 / (1 + ‖x_u − y_v‖²)`) with sum aggregation;
//! 2. a *min-pooled absolute difference* kernel, mixing a custom VOP
//!    with AMIN aggregation.
//!
//! Run: `cargo run --release --example custom_ops`

use std::sync::Arc;

use fusedmm::prelude::*;

fn main() {
    let a = rmat(&RmatConfig::new(300, 1500));
    let d = 32;
    let x = random_features(300, d, 0.5, 1);
    let y = random_features(300, d, 0.5, 2);

    // --- 1. t-distribution kernel -----------------------------------------
    // VOP = SUB, ROP = NORM, SOP(s) = 1/(1+s^2), MOP = MUL, AOP = ASUM.
    let tdist = OpSet::custom(
        VOp::Sub,
        ROp::Norm,
        SOp::Custom(Arc::new(|s, _| 1.0 / (1.0 + s * s))),
        MOp::Mul,
        AOp::Sum,
    );
    let z = fusedmm(&a, &x, &y, &tdist);
    println!("t-distribution kernel: z is {}x{}", z.nrows(), z.ncols());

    // Spot-check one vertex against a scalar computation.
    let u = 7;
    let (cols, _) = a.row(u);
    if let Some(&v) = cols.first() {
        let sq: f32 = x.row(u).iter().zip(y.row(v)).map(|(&p, &q)| (p - q) * (p - q)).sum();
        let h = 1.0 / (1.0 + sq);
        println!("  edge ({u},{v}): h = 1/(1+dist^2) = {h:.4}");
    }

    // --- 2. min-pooled absolute difference --------------------------------
    // VOP = |x - y| elementwise (custom), no reduction, AMIN pooling:
    // z_u[k] = min over neighbors of |x_u[k] - y_v[k]|.
    let absdiff_min = OpSet::custom(
        VOp::Custom(Arc::new(|xr, yr, _a, out| {
            for ((o, &xi), &yi) in out.iter_mut().zip(xr).zip(yr) {
                *o = (xi - yi).abs();
            }
        })),
        ROp::Noop,
        SOp::Noop,
        MOp::Noop,
        AOp::Min,
    );
    let zmin = fusedmm(&a, &x, &y, &absdiff_min);
    println!("min-absdiff kernel:    z is {}x{}", zmin.nrows(), zmin.ncols());

    // Verify against a straightforward reference for one vertex.
    let (cols, _) = a.row(u);
    if !cols.is_empty() {
        for k in 0..3 {
            let want = cols
                .iter()
                .map(|&v| (x.get(u, k) - y.get(v, k)).abs())
                .fold(f32::INFINITY, f32::min);
            let got = zmin.get(u, k);
            assert!((want - got).abs() < 1e-6, "lane {k}: {got} vs {want}");
        }
        println!("  vertex {u}: min-pooled lanes verified against scalar reference");
    }

    // No kernel code was written for either set. The t-distribution
    // closure is a user SOP on the (SUB, NORM, _, MUL, ASUM) shape, so it
    // runs on the SIMD FR kernels with the closure applied per edge; the
    // min-pooled set has a custom VOP and AMIN, matches no kernel shape,
    // and runs the generic five-step kernel.
    println!("OK: two novel operator sets executed by one kernel.");
}
