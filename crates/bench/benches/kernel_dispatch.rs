//! Kernel dispatch bench: blocking level × SIMD backend across the
//! dimensions the kernels serve.
//!
//! Every recognized kernel shape runs on one kernel family, the
//! plan-time specialized table (vector-width panels with
//! register-resident accumulators, masked tails for any d). Three arms
//! per `(pattern, d)`:
//!
//! * `auto` — `Blocking::Auto`, the table's static default shape for
//!   the dimension (what `fusedmm_opt` and every engine run);
//! * `specialized` — the autotuner's probed best shape (what a
//!   prepared `Plan` runs);
//! * `dyn_strips` — the unblocked baseline (8-lane strips, `z_u` in
//!   memory, an unfused scalar tail per neighbor at odd d).
//!
//! Acceptance: `specialized` and `auto` medians at or below
//! `dyn_strips` at every d, strictly below at the odd d = 100; and
//! `auto` no slower than the previous release's `auto` at any d (run
//! this bench on both checkouts and compare the `auto` rows).
//!
//! The header line records the detected CPU features and chosen
//! backend (on an AVX-512 machine the 16-lane kernels); set
//! `FUSEDMM_FORCE_SCALAR=1` or `FUSEDMM_FORCE_BACKEND=avx2` to
//! measure the narrower paths on the same machine.
//!
//! Run: `cargo bench --bench kernel_dispatch`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;

use fusedmm_bench::workloads::kernel_workload_scaled;
use fusedmm_core::{cpu_features, fusedmm_opt_with, global_tuner, Blocking, PartitionStrategy};
use fusedmm_graph::datasets::Dataset;
use fusedmm_ops::OpSet;

// Small embedding dims (8..64), serving dims (48/96/192/384), the
// Force2Vec dimension 128, and the odd d = 100.
const DIMS: [usize; 10] = [8, 16, 32, 48, 64, 96, 100, 128, 192, 384];

fn bench_pattern(c: &mut Criterion, pattern_name: &str, ops: &OpSet) {
    for &d in &DIMS {
        // Scale the graph down as d grows so each configuration stays
        // in a comparable time budget.
        let w = kernel_workload_scaled(Dataset::Youtube, d, 0.004 * 96.0 / d as f64);
        let mut g = c.benchmark_group(format!("kernel_dispatch_{pattern_name}_d{d}"));
        g.warm_up_time(Duration::from_millis(500));
        g.measurement_time(Duration::from_millis(2000));
        g.sample_size(32);
        // The tuner probes the shape grid once per (pattern, d) and
        // caches; the bench then measures the winning shape.
        let spec = global_tuner().spec_for(ops, d);
        let levels = [
            ("auto", Blocking::Auto),
            ("specialized", Blocking::Specialized(spec)),
            ("dyn_strips", Blocking::DynStrips),
        ];
        for (name, blocking) in levels {
            g.bench_function(name, |b| {
                b.iter(|| {
                    // Single partition: measure the kernels themselves,
                    // not rayon fork-join jitter.
                    black_box(fusedmm_opt_with(
                        &w.adj,
                        &w.x,
                        &w.y,
                        ops,
                        blocking,
                        Some(1),
                        PartitionStrategy::NnzBalanced,
                    ))
                });
            });
        }
        g.finish();
    }
}

fn bench_spmm(c: &mut Criterion) {
    bench_pattern(c, "spmm", &OpSet::gcn());
}

fn bench_sigmoid_embed(c: &mut Criterion) {
    bench_pattern(c, "embed", &OpSet::sigmoid_embedding(None));
}

fn bench_tdist(c: &mut Criterion) {
    bench_pattern(c, "tdist", &OpSet::tdist_embedding());
}

fn print_header(_c: &mut Criterion) {
    println!("{}", cpu_features());
}

criterion_group!(benches, print_header, bench_spmm, bench_sigmoid_embed, bench_tdist);
criterion_main!(benches);
