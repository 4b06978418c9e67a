//! The benchmark's metric vocabulary — the single list that
//! `BENCHMARK.json`, the result line and the documentation follow —
//! and the report that collects one run's values.

use std::collections::BTreeMap;

use crate::json;

/// One metric: name, unit, which direction is better, and (for a
/// per-layer metric) the end-to-end metric and workload it is expected
/// to move.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef { name, unit, better, moves }
}

/// End-to-end metrics, measured with tracing off and reported on every
/// workload. An "op" is the workload's unit of work: one training epoch
/// (train-f2v), one embed + SpMM step (kernel-dram), or one embed
/// request (both serve workloads). Wall-clock op latency is printed by
/// every run and recorded per layer (`wall.*`), but not gated: CPU time
/// the hypervisor steals from a shared machine moved it up to threefold
/// between identical runs, far more than it moved CPU time per op.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower", "median of nine cold set-ups in the run"),
    m("heap_peak_mb", "MB", "lower", "peak live heap of the run (counting allocator)"),
    m("op_cpu_ms", "ms", "lower", "process CPU time (all threads) per op in the timed phase"),
    m("ok_rate", "ratio", "higher", "1 - error_rate"),
];

/// Per-layer metrics from the traced run. Metrics a workload does not
/// exercise read 0 on it.
pub const PER_LAYER: &[MetricDef] = &[
    // Wall-clock op latency from the untraced part of the traced run:
    // epoch / step / embed (from when the request was due).
    m("wall.op_p50_ms", "ms", "lower", "user-visible; moved by every layer, and by host steal"),
    m("wall.op_p90_ms", "ms", "lower", "user-visible; moved by every layer, and by host steal"),
    // apps / sparse / core on train-f2v: seconds per epoch in each call.
    m("apps.f2v.sample_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("sparse.slice_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("sparse.gather_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("core.f2v_pos_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("core.f2v_neg_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("apps.f2v.loss_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("apps.f2v.update_s", "s", "lower", "op_cpu_ms on train-f2v"),
    m("core.f2v.launches", "count", "lower", "op_cpu_ms on train-f2v"),
    // perf: the L0 ceiling, measured in every traced run.
    m("perf.stream_gbs", "GB/s", "higher", "ceiling for core.<p>.bw_frac on kernel-dram"),
    // core on kernel-dram.
    m("core.embed.plan_s", "s", "lower", "setup_s on kernel-dram"),
    m("core.spmm.plan_s", "s", "lower", "setup_s on kernel-dram"),
    m("core.embed.pass_s", "s", "lower", "op_cpu_ms on kernel-dram"),
    m("core.spmm.pass_s", "s", "lower", "op_cpu_ms on kernel-dram"),
    m("core.embed.gflops", "GFLOP/s", "higher", "op_cpu_ms on kernel-dram"),
    m("core.spmm.gflops", "GFLOP/s", "higher", "op_cpu_ms on kernel-dram"),
    m("core.embed.gbs_computed", "GB/s", "higher", "op_cpu_ms on kernel-dram"),
    m("core.spmm.gbs_computed", "GB/s", "higher", "op_cpu_ms on kernel-dram"),
    m("core.embed.bw_frac", "ratio", "higher", "op_cpu_ms on kernel-dram"),
    m("core.spmm.bw_frac", "ratio", "higher", "op_cpu_ms on kernel-dram"),
    m("core.embed.ai", "flop/B", "higher", "op_cpu_ms on kernel-dram"),
    m("core.spmm.ai", "flop/B", "higher", "op_cpu_ms on kernel-dram"),
    m("core.embed.blocking", "code", "lower", "explains op_cpu_ms spread on kernel-dram"),
    m("core.spmm.blocking", "code", "lower", "explains op_cpu_ms spread on kernel-dram"),
    m("core.embed.resolutions", "count", "lower", "explains op_cpu_ms spread on kernel-dram"),
    m("core.spmm.resolutions", "count", "lower", "explains op_cpu_ms spread on kernel-dram"),
    // baseline on kernel-dram: reproduces the paper's ordering only.
    m("baseline.embed.unfused_s", "s", "lower", "no end-to-end metric"),
    m("baseline.spmm.unfused_s", "s", "lower", "no end-to-end metric"),
    m("baseline.embed.fused_speedup", "ratio", "higher", "no end-to-end metric"),
    m("baseline.spmm.fused_speedup", "ratio", "higher", "no end-to-end metric"),
    // serve on both serve workloads.
    m("serve.begin_us_p50", "us", "lower", "wall.op_p90_ms and serve.max_ok_rps on serve-*"),
    m("serve.begin_us_p99", "us", "lower", "wall.op_p90_ms and serve.max_ok_rps on serve-*"),
    m("serve.resolve_ms_p50", "ms", "lower", "wall.op_p50_ms on serve-*"),
    m("serve.resolve_ms_p99", "ms", "lower", "wall.op_p90_ms on serve-*"),
    m("serve.rows_per_launch", "count", "higher", "serve.max_ok_rps on serve-*"),
    m("serve.dedup_frac", "ratio", "higher", "serve.max_ok_rps on serve-*"),
    m("core.rows.busy_frac", "ratio", "lower", "serve.max_ok_rps on serve-*"),
    m("serve.harvested", "count", "higher", "ok_rate on serve-*"),
    m("serve.shed", "count", "lower", "ok_rate on serve-*"),
    m("serve.degraded", "count", "lower", "ok_rate on serve-*"),
    m("serve.failed", "count", "lower", "ok_rate on serve-*"),
    m("serve.abandoned", "count", "lower", "ok_rate on serve-*"),
    m("loadgen.late_p99_ms", "ms", "lower", "shows whether the generator kept up"),
    m("loadgen.backlog_max", "count", "lower", "shows whether the generator kept up"),
    m("serve.max_ok_rps", "1/s", "higher", "end to end (untraced ladder in the traced run)"),
    m("serve.embed_p99_ms", "ms", "lower", "end to end (untraced phase of the traced run)"),
    // cache on serve-zipf (prediction on serve-remote-writes: no change).
    m("cache.hit_ratio", "ratio", "higher", "op_cpu_ms and wall.op_p50_ms on serve-zipf"),
    m("cache.coalesced_frac", "ratio", "higher", "op_cpu_ms and wall.op_p50_ms on serve-zipf"),
    m("cache.evictions", "count", "lower", "op_cpu_ms and wall.op_p50_ms on serve-zipf"),
    m("cache.invalidated_rows", "count", "lower", "op_cpu_ms and wall.op_p50_ms on serve-zipf"),
    // rpc and the store on serve-remote-writes.
    m("rpc.roundtrip_p50_ms", "ms", "lower", "op_cpu_ms and wall.op_p90_ms on serve-remote-writes"),
    m("rpc.roundtrip_p99_ms", "ms", "lower", "op_cpu_ms and wall.op_p90_ms on serve-remote-writes"),
    m("rpc.bytes_per_req", "B", "lower", "op_cpu_ms and wall.op_p90_ms on serve-remote-writes"),
    m(
        "rpc.frames_per_req",
        "count",
        "lower",
        "op_cpu_ms and wall.op_p90_ms on serve-remote-writes",
    ),
    m("rpc.reconnects", "count", "lower", "ok_rate on serve-remote-writes"),
    m("rpc.epoch_lag_max", "count", "lower", "shows how far replicas fall behind"),
    m("serve.store.delta_ms", "ms", "lower", "serve.write_p50_ms on serve-remote-writes"),
    m(
        "serve.store.bytes_copied_per_write",
        "B",
        "lower",
        "serve.write_p50_ms on serve-remote-writes",
    ),
    m("serve.write_p50_ms", "ms", "lower", "end to end (untraced phase of the traced run)"),
    m("serve.write_p90_ms", "ms", "lower", "end to end (untraced phase of the traced run)"),
    // tracing itself.
    m("trace.overhead_frac", "ratio", "lower", "traced over untraced op median, minus one"),
];

/// One run's outcome: correctness, operation counts and metric values.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    wrong: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Count `n` operations attempted.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` operations that failed without a wrong output (typed
    /// errors, shed or abandoned requests).
    pub fn fail(&mut self, n: u64) {
        self.failed += n;
    }

    /// Record one checked operation: a wrong output counts as attempted
    /// and failed, and makes the whole run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("WRONG OUTPUT: {msg}");
            self.wrong.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty()
    }

    /// Set metric `name`, which must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "unknown metric {name}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every metric of `set`, in order. A per-layer
    /// metric the workload did not exercise (or could not compute)
    /// reads 0; a missing end-to-end metric is a bug in the benchmark.
    pub fn result_line(&self, set: &[MetricDef], per_layer: bool) -> String {
        let metrics: Vec<String> = set
            .iter()
            .map(|d| {
                let v = self.values.get(d.name).copied().filter(|v| v.is_finite());
                assert!(per_layer || v.is_some(), "end-to-end metric {} not measured", d.name);
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(d.name),
                    json::num(v.unwrap_or(0.0)),
                    json::quote(d.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// The definition of metric `name`.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}
