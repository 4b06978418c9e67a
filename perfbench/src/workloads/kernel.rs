//! `kernel-dram`: whole-graph `Plan::execute`, one sigmoid-embedding
//! pass plus one SpMM (`OpSet::gcn`) pass per step at d = 128, on a
//! degree-≈10 RMAT graph whose operands are several times the
//! last-level cache — the paper's Table VI/VII kernels alone, reading
//! from DRAM. Kernel families, hybrid, partitioning and `core::driver`
//! do almost all the work.

use std::time::Instant;

use fusedmm_baseline::unfused_pipeline;
use fusedmm_core::{fusedmm_reference, global_tuner, Plan};
use fusedmm_graph::features::random_features;
use fusedmm_graph::rmat::{rmat, RmatConfig};
use fusedmm_ops::OpSet;
use fusedmm_perf::flops;
use fusedmm_sparse::slice::{gather_rows, slice_rows};
use fusedmm_sparse::{Csr, Dense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{blocking_code, blocking_label, rel_diff, repeated_setup, stream_gbs, Ctx};
use crate::spans;
use crate::stats::{median, median_ratio, percentile, rotated};

const N: usize = 200_000;
const AVG_DEGREE: usize = 10;
const D: usize = 128;
/// Output rows checked against the sequential reference.
const CHECK_ROWS: usize = 64;
/// Relative tolerance of the reference check (f32 sums reassociate).
const TOL: f32 = 1e-4;
/// Cold plan resolutions, without warm-up, added to the set-ups' plans:
/// timed steps cycle through all of them, and the traced run counts
/// the distinct blockings among them.
const EXTRA_DRAWS: usize = 1;
/// Interleaved fused/unfused rounds of the baseline comparison.
const BASELINE_ROUNDS: usize = 3;

struct Inputs {
    a: Csr,
    x: Dense,
    y: Dense,
}

struct Arm {
    name: &'static str,
    ops: OpSet,
    plan: Plan,
}

fn plans(embed: &OpSet, spmm: &OpSet) -> (Plan, Plan) {
    global_tuner().clear();
    (Plan::prepare(embed, D), Plan::prepare(spmm, D))
}

fn step(inp: &Inputs, arms: &[Arm; 2]) -> [Dense; 2] {
    [0, 1].map(|i| arms[i].plan.execute(&inp.a, &inp.x, &inp.y, &arms[i].ops))
}

pub fn run(ctx: &mut Ctx) {
    let a = rmat(&RmatConfig::new(N, N * AVG_DEGREE / 2).with_seed(ctx.seed_for(1)));
    let x = random_features(N, D, 0.5, ctx.seed_for(2));
    let y = random_features(N, D, 0.5, ctx.seed_for(3));
    let inp = Inputs { a, x, y };
    let nnz = inp.a.nnz();
    let operand_bytes = fusedmm_sparse::fusedmm_bytes(N, N, nnz, D);
    let llc = crate::sys::llc_bytes();
    ctx.record.raw("operand_bytes", operand_bytes.to_string());
    println!(
        "kernel-dram: n={N} nnz={nnz} d={D}, operands {:.0} MiB = {:.1}x the {:.0} MiB last-level cache",
        operand_bytes as f64 / (1 << 20) as f64,
        operand_bytes as f64 / llc.max(1) as f64,
        llc as f64 / (1 << 20) as f64
    );
    let embed = OpSet::sigmoid_embedding(None);
    let spmm = OpSet::gcn();

    // Cold set-up: both plans (autotune probes included) and one
    // warm-up step. Every set-up's plans are kept: timed steps cycle
    // through them, so one run samples the autotuner's choices instead
    // of betting on one.
    let arms_for = |(pe, ps): (Plan, Plan)| {
        [
            Arm { name: "embed", ops: embed.clone(), plan: pe },
            Arm { name: "spmm", ops: spmm.clone(), plan: ps },
        ]
    };
    let mut resolved = Vec::new();
    let ((), setups) = repeated_setup(|| {
        let arms = arms_for(plans(&embed, &spmm));
        std::hint::black_box(step(&inp, &arms));
        resolved.push(arms);
    });
    ctx.report.set("setup_s", median(&setups));
    ctx.say("setup_s", median(&setups), "s");
    for _ in 0..EXTRA_DRAWS {
        resolved.push(arms_for(plans(&embed, &spmm)));
    }
    for (i, name) in ["embed", "spmm"].into_iter().enumerate() {
        let labels: Vec<String> =
            resolved.iter().map(|a| blocking_label(a[i].plan.blocking())).collect();
        println!("  core.{name}.blocking per cold resolution: {}", labels.join(" "));
        ctx.record.raw(
            &format!("blocking_{name}"),
            format!(
                "[{}]",
                labels.iter().map(|l| crate::json::quote(l)).collect::<Vec<_>>().join(",")
            ),
        );
    }
    if ctx.trace {
        traced(ctx, &inp, &resolved);
        check(ctx, &inp, resolved.last().expect("at least one set-up"));
        return;
    }
    let mut step_s = Vec::new();
    let c0 = crate::sys::cpu_seconds();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < t_end {
        let arms = &resolved[step_s.len() % resolved.len()];
        let t0 = Instant::now();
        std::hint::black_box(step(&inp, arms));
        step_s.push(t0.elapsed().as_secs_f64());
    }
    let cpu = crate::sys::cpu_seconds() - c0;
    ctx.report.attempt(step_s.len() as u64);
    ctx.report.set("op_cpu_ms", cpu * 1e3 / step_s.len() as f64);
    ctx.say_latency("step", &step_s, "s");
    ctx.say("step_p90_s", percentile(&step_s, 90.0), "s");
    println!("  steps timed: {}", step_s.len());
    // Check each distinct pair of resolved plans once.
    let mut seen = Vec::new();
    for arms in &resolved {
        let key = arms.each_ref().map(|a| blocking_label(a.plan.blocking()));
        if !seen.contains(&key) {
            check(ctx, &inp, arms);
            seen.push(key);
        }
    }
}

/// Gates: sampled output rows match the sequential reference, and the
/// fused rows match the unfused SDDMM → SpMM pipeline on the same rows.
fn check(ctx: &mut Ctx, inp: &Inputs, arms: &[Arm; 2]) {
    let out = step(inp, arms);
    let mut rng = StdRng::seed_from_u64(ctx.seed_for(4));
    let rows: Vec<usize> = (0..CHECK_ROWS).map(|_| rng.gen_range(0..N)).collect();
    let mb = slice_rows(&inp.a, &rows);
    let xb = gather_rows(&inp.x, &rows);
    for (arm, z) in arms.iter().zip(&out) {
        let got = gather_rows(z, &rows);
        let reference = fusedmm_reference(&mb.adj, &xb, &inp.y, &arm.ops);
        let unfused = unfused_pipeline(&mb.adj, &xb, &inp.y, &arm.ops).z;
        let (dr, du) = (rel_diff(&got, &reference), rel_diff(&got, &unfused));
        ctx.report.check(dr <= TOL, || format!("{} rows differ from reference by {dr}", arm.name));
        ctx.report.check(du <= TOL, || format!("{} fused differs from unfused by {du}", arm.name));
    }
}

/// The traced run over the run's cold resolutions `all`: steps cycle
/// through them as in the untraced run, and with one more traced
/// resolution they count the distinct blockings the autotuner picks.
fn traced(ctx: &mut Ctx, inp: &Inputs, all: &[[Arm; 2]]) {
    let nnz = inp.a.nnz();
    let arms = all.last().expect("at least one set-up");
    let mut resolved: [Vec<String>; 2] =
        [0, 1].map(|i| all.iter().map(|a| blocking_label(a[i].plan.blocking())).collect());
    // Plan preparation, cold, under spans.
    ctx.rec.set_enabled(true);
    global_tuner().clear();
    for (i, arm) in arms.iter().enumerate() {
        let s = ctx.rec.begin(if i == 0 { "core.embed.plan" } else { "core.spmm.plan" });
        let p = Plan::prepare(&arm.ops, D);
        let secs = ctx.rec.end(s) as f64 / 1e9;
        ctx.report.set(if i == 0 { "core.embed.plan_s" } else { "core.spmm.plan_s" }, secs);
        resolved[i].push(blocking_label(p.blocking()));
    }
    ctx.rec.set_enabled(false);
    for (i, arm) in arms.iter().enumerate() {
        let mut distinct = resolved[i].clone();
        distinct.sort();
        distinct.dedup();
        println!("  core.{}.resolutions: {} {:?}", arm.name, distinct.len(), resolved[i]);
        let (code, count) = if i == 0 {
            ("core.embed.blocking", "core.embed.resolutions")
        } else {
            ("core.spmm.blocking", "core.spmm.resolutions")
        };
        ctx.report.set(code, blocking_code(arm.plan.blocking()));
        ctx.report.set(count, distinct.len() as f64);
    }

    // Untraced and traced steps alternate, so drift hits both alike;
    // the traced ones carry a span per pass.
    let (mut untraced, mut traced_times) = (Vec::new(), Vec::new());
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(ctx.seconds * 2.0 / 3.0);
    while Instant::now() < t_end {
        let traced = untraced.len() > traced_times.len();
        // Each plan pair runs once untraced and once traced in turn.
        let arms = &all[traced_times.len() % all.len()];
        ctx.rec.set_enabled(traced);
        let t0 = Instant::now();
        let st = ctx.rec.begin("kernel.step");
        for (i, arm) in arms.iter().enumerate() {
            let s = ctx.rec.begin(if i == 0 { "core.embed.pass" } else { "core.spmm.pass" });
            std::hint::black_box(arm.plan.execute(&inp.a, &inp.x, &inp.y, &arm.ops));
            ctx.rec.end(s);
        }
        ctx.rec.end(st);
        let secs = t0.elapsed().as_secs_f64();
        ctx.rec.set_enabled(false);
        ctx.report.attempt(1);
        if traced {
            traced_times.push(secs)
        } else {
            untraced.push(secs)
        }
    }
    ctx.report.set("trace.overhead_frac", median(&traced_times) / median(&untraced) - 1.0);
    ctx.report.set("wall.op_p50_ms", median(&untraced) * 1e3);
    ctx.report.set("wall.op_p90_ms", percentile(&untraced, 90.0) * 1e3);

    let gbs = stream_gbs(ctx);
    ctx.report.set("perf.stream_gbs", gbs);
    let bytes = fusedmm_sparse::fusedmm_bytes(N, N, nnz, D) as f64;
    for (i, arm) in arms.iter().enumerate() {
        let p = arm.name;
        let pass = median(&spans::durations(ctx.rec.spans(), &format!("core.{p}.pass"))) / 1e9;
        let pattern = arm.ops.pattern;
        let gflops = flops::gflops(pattern, D, nnz, pass);
        let gbs_computed = bytes / pass / 1e9;
        let names: [&'static str; 5] = if i == 0 {
            [
                "core.embed.pass_s",
                "core.embed.gflops",
                "core.embed.gbs_computed",
                "core.embed.bw_frac",
                "core.embed.ai",
            ]
        } else {
            [
                "core.spmm.pass_s",
                "core.spmm.gflops",
                "core.spmm.gbs_computed",
                "core.spmm.bw_frac",
                "core.spmm.ai",
            ]
        };
        ctx.report.set(names[0], pass);
        ctx.report.set(names[1], gflops);
        ctx.report.set(names[2], gbs_computed);
        ctx.report.set(names[3], gbs_computed / gbs);
        ctx.report.set(names[4], flops::total_flops(pattern, D, nnz) as f64 / bytes);
        println!(
            "  core.{p}: pass {:.6} s, {gflops:.2} GFLOP/s, {gbs_computed:.2} GB/s computed ({:.0}% of STREAM {gbs:.2})",
            pass,
            100.0 * gbs_computed / gbs
        );
    }

    // Fused vs unfused (the paper's Tables VI/VII ordering), in
    // interleaved rounds with the order rotated each round.
    for (i, arm) in arms.iter().enumerate() {
        let mut t = [Vec::new(), Vec::new()];
        for r in 0..BASELINE_ROUNDS {
            for k in 0..2 {
                let j = rotated(r, k, 2);
                let t0 = Instant::now();
                if j == 0 {
                    std::hint::black_box(arm.plan.execute(&inp.a, &inp.x, &inp.y, &arm.ops));
                } else {
                    std::hint::black_box(unfused_pipeline(&inp.a, &inp.x, &inp.y, &arm.ops));
                }
                t[j].push(t0.elapsed().as_secs_f64());
            }
        }
        let (unfused_s, speedup) = (median(&t[1]), median_ratio(&t[1], &t[0]));
        let names = if i == 0 {
            ["baseline.embed.unfused_s", "baseline.embed.fused_speedup"]
        } else {
            ["baseline.spmm.unfused_s", "baseline.spmm.fused_speedup"]
        };
        ctx.report.set(names[0], unfused_s);
        ctx.report.set(names[1], speedup);
        println!("  baseline.{}: unfused {unfused_s:.6} s, fused speedup {speedup:.3}x", arm.name);
    }
}
