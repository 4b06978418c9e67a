//! Tests of the benchmark's own code: its statistics, span self time,
//! open-loop latency accounting, and agreement with `BENCHMARK.json`.

use perfbench::json::Json;
use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::spans::{self, Recorder, Span};
use perfbench::stats::{
    compare, median, percentile, quartiles, rotated, spread, tail_percentile, Better, Schedule,
    Verdict,
};

#[test]
fn tail_percentile_keeps_ten_samples_beyond() {
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(39), Some(50.0));
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(199), Some(90.0));
    assert_eq!(tail_percentile(200), Some(95.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    // Exactly ten samples lie beyond the chosen percentile at n = 1000.
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&v, 99.0);
    assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // Reference values from Python's statistics.quantiles(d, n=4).
    type Case<'a> = (&'a [f64], (f64, f64, f64), f64);
    let cases: [Case; 4] = [
        (&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.], (2.75, 5.5, 8.25), 5.5),
        (&[3.5, 1.25, 9.0, 4.0], (1.8125, 3.75, 7.75), 3.75),
        (&[10., 20.], (7.5, 15.0, 22.5), 15.0),
        (&[5., 1., 4., 2., 3.], (1.5, 3.0, 4.5), 3.0),
    ];
    for (data, q, m) in cases {
        assert_eq!(quartiles(data), q, "quartiles of {data:?}");
        assert_eq!(median(data), m, "median of {data:?}");
    }
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    assert!((spread(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn rotated_order_alternates_who_runs_first() {
    assert_eq!((rotated(0, 0, 2), rotated(0, 1, 2)), (0, 1));
    assert_eq!((rotated(1, 0, 2), rotated(1, 1, 2)), (1, 0));
    let firsts: Vec<usize> = (0..6).map(|r| rotated(r, 0, 3)).collect();
    assert_eq!(firsts, vec![0, 1, 2, 0, 1, 2]);
}

#[test]
fn verdict_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread() {
    let parent = [100., 101., 99., 100., 102., 98., 100., 101., 99., 100.];
    let change: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
    let c = compare(&parent, &change, Better::Lower, 0.1);
    assert_eq!(c.win_share, 1.0);
    assert_eq!(c.verdict, Verdict::Improved);

    // Higher-is-better metrics flip the direction.
    let c = compare(&parent, &change, Better::Higher, 0.1);
    assert_eq!(c.verdict, Verdict::Worse);
    assert!((c.worse_by - 0.2).abs() < 1e-9);
}

#[test]
fn verdict_unchanged_within_bound_and_worse_beyond() {
    let parent = [100., 101., 99., 100., 102., 98., 100., 101., 99., 100.];
    // Wins only half the pairs: not an improvement, within the bound.
    let change = [99., 102., 98., 101., 101., 99., 99., 102., 98., 101.];
    let c = compare(&parent, &change, Better::Lower, 0.05);
    assert_eq!(c.win_share, 0.5);
    assert_eq!(c.verdict, Verdict::Unchanged);

    let slower: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    assert_eq!(compare(&parent, &slower, Better::Lower, 0.1).verdict, Verdict::Worse);
}

#[test]
fn verdict_unresolved_when_spread_exceeds_the_bound() {
    // Noisy parent: quartile distance ~ half the median, bound 10%.
    let parent = [60., 140., 80., 120., 100., 70., 130., 90., 110., 100.];
    let change = [65., 130., 85., 125., 105., 75., 120., 95., 115., 100.];
    let c = compare(&parent, &change, Better::Lower, 0.1);
    assert!(spread(&parent) > 0.1);
    assert_eq!(c.verdict, Verdict::Unresolved);

    // ...unless every change run beats every parent run.
    let fast: Vec<f64> = parent.iter().map(|_| 50.0).collect();
    let c = compare(&parent, &fast, Better::Lower, 0.1);
    assert_eq!(c.verdict, Verdict::Improved);

    // Ties count for neither side.
    let c = compare(&[1.0, 1.0], &[1.0, 1.0], Better::Lower, 0.1);
    assert_eq!(c.win_share, 0.0);
    assert_eq!(c.verdict, Verdict::Unchanged);
}

fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span { id, parent, name: "s", start_ns, end_ns }
}

#[test]
fn self_time_subtracts_child_coverage_once() {
    let spans = vec![
        span(1, None, 0, 100),
        // Two overlapping children covering 10..50 (40 ns, not 50).
        span(2, Some(1), 10, 40),
        span(3, Some(1), 30, 50),
        // A child sticking out of its parent counts only inside it.
        span(4, Some(1), 90, 120),
        // A grandchild does not reduce the grandparent further.
        span(5, Some(2), 15, 25),
    ];
    let st = spans::self_times(&spans);
    assert_eq!(st, vec![100 - 40 - 10, 30 - 10, 20, 30, 10]);
}

#[test]
fn recorder_nests_and_stays_silent_when_disabled() {
    let mut rec = Recorder::new(true);
    let outer = rec.begin("outer");
    let inner = rec.begin("inner");
    rec.end(inner);
    rec.end(outer);
    let s = rec.spans();
    assert_eq!(s.len(), 2);
    assert_eq!((s[0].name, s[1].name), ("inner", "outer"));
    assert_eq!(s[0].parent, Some(s[1].id));
    assert_eq!(s[1].parent, None);
    let totals = spans::totals(s);
    assert_eq!(totals["outer"].0, 1);
    assert!(totals["outer"].2 <= totals["outer"].1);

    let mut off = Recorder::new(false);
    let o = off.begin("x");
    off.end(o);
    off.record("y", 0, 5);
    assert!(off.spans().is_empty());
}

#[test]
fn open_loop_latency_counts_from_due_time_through_a_stall() {
    // 1000 requests per second: one due every millisecond.
    let sched = Schedule::new(0, 1000.0);
    assert_eq!(sched.period_ns, 1_000_000);
    // The generator stalls for 50 ms before request 10; requests due
    // during the stall go out together when it ends, and each takes
    // 1 ms to serve once sent.
    let stall_end = 60_000_000u64;
    let service = 1_000_000u64;
    let mut from_due = Vec::new();
    let mut from_sent = Vec::new();
    for i in 0..100u64 {
        let sent = if (10..60).contains(&i) { stall_end } else { sched.due(i) };
        let done = sent + service;
        from_due.push(sched.latency(i, done) as f64 / 1e6);
        from_sent.push((done - sent) as f64 / 1e6);
        assert_eq!(sched.lateness(i, sent), sent - sched.due(i));
    }
    // Timed from sending, the stall is invisible.
    assert!(from_sent.iter().all(|&l| l == 1.0));
    // Timed from the due time, request 10 waited the whole stall.
    assert_eq!(from_due[10], 51.0);
    assert_eq!(from_due[59], 2.0);
    assert_eq!(from_due[60], 1.0);
    // Half the requests were delayed, so the tail shows the stall.
    assert_eq!(percentile(&from_due, 90.0), 41.0);
    assert_eq!(percentile(&from_due, 99.0), 50.0);
    assert_eq!(median(&from_due), 1.5);
}

#[test]
fn json_round_trips_the_result_line() {
    let mut r = perfbench::metrics::Report::default();
    for d in END_TO_END {
        r.set(d.name, 1.5);
    }
    r.attempt(3);
    r.check(false, || "wrong".into());
    let line = Json::parse(&r.result_line(END_TO_END, false)).expect("valid JSON");
    assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(4.0));
    assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
    let m = line.get("metrics").expect("metrics");
    assert_eq!(m.get("op_cpu_ms").and_then(|v| v.get("value")).and_then(Json::as_f64), Some(1.5));
    // A per-layer line lists every per-layer metric, 0 where unmeasured.
    let pl = Json::parse(&r.result_line(PER_LAYER, true)).expect("valid JSON");
    let Some(Json::Obj(pm)) = pl.get("metrics") else { panic!("metrics object") };
    assert_eq!(pm.len(), PER_LAYER.len());
}

#[test]
fn benchmark_json_lists_exactly_the_code_metrics() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let list = j.get(key).and_then(Json::as_array).expect(key);
        assert_eq!(list.len(), defs.len(), "{key} length");
        for (entry, d) in list.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
            assert_eq!(entry.get("better").and_then(Json::as_str), Some(d.better));
        }
    }
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(workloads, perfbench::workloads::NAMES);
}

#[test]
fn open_loop_samples_by_stride_and_during_writes_with_epochs_around_begin() {
    use std::cell::Cell;

    use fusedmm_graph::features::random_features;
    use fusedmm_graph::rmat::{rmat, RmatConfig};
    use fusedmm_serve::{EngineConfig, ShardedEngine};
    use perfbench::loadgen::{open_loop, Target};

    let n = 64;
    let a = rmat(&RmatConfig::new(n, n * 4).with_seed(1));
    let (x, y) = (random_features(n, 8, 0.5, 2), random_features(n, 8, 0.5, 3));
    let ops = fusedmm_ops::OpSet::sigmoid_embedding(None);
    let engine = ShardedEngine::new(a, x, y, ops, 1, EngineConfig::default());
    // Request k asks for row k; the deployment is "writing" during
    // request 3 only; every epoch read returns the next number.
    let issued = Cell::new(0usize);
    let reads = Cell::new(0u64);
    let begin = |ids: &[usize]| engine.embed_begin(ids);
    let epoch = || {
        reads.set(reads.get() + 1);
        reads.get()
    };
    let writing = || issued.get() == 4;
    let target = Target { begin: &begin, epoch: &epoch, writing: &writing };
    let mut next_ids = || {
        issued.set(issued.get() + 1);
        vec![issued.get() - 1]
    };
    let mut rec = Recorder::new(false);
    let ph = open_loop(
        2000.0,
        0.01,
        std::time::Duration::from_secs(5),
        10,
        &mut rec,
        &mut next_ids,
        &target,
    );
    assert_eq!(ph.issued, 20);
    assert_eq!(ph.errors, 0);
    let mut sampled: Vec<usize> = ph.samples.iter().map(|s| s.ids[0]).collect();
    sampled.sort();
    assert_eq!(sampled, [0, 3, 10]);
    // Each sampled request read the epoch just before and just after
    // its begin: consecutive reads, in issue order.
    let mut epochs: Vec<(u64, u64)> = ph.samples.iter().map(|s| s.epochs).collect();
    epochs.sort();
    assert_eq!(epochs, [(1, 2), (3, 4), (5, 6)]);
    assert!(ph.samples.iter().all(|s| s.rows.nrows() == 1 && s.rows.ncols() == 8));
}
