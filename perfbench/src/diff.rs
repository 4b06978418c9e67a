//! Paired comparison of a parent and a change checkout: alternating
//! runs on the same seeds, each side's median and quartiles per metric
//! and workload, the share of pairs the change won, and a verdict
//! against the bounds in `BENCHMARK.json` (choosing-metrics guide,
//! section 8). The order within a pair rotates as in `skew-sweep`'s
//! interleaved rounds, so neither side always runs first.
//!
//! The pair count, the seeds and the run length are fixed: ten pairs,
//! seeds from [`SEED_BASE`], and `run_seconds` from `BENCHMARK.json`.
//! Besides the gated metrics of the untraced runs, each side also runs
//! traced in every pair, and the wall-clock figures of [`WATCHED`] are
//! compared too: they are not gated (their spread on a shared machine
//! is wider than any bound), but a change that trades latency for CPU
//! time shows up in them.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{def, END_TO_END};
use crate::record;
use crate::stats::{compare, rotated, Better};
use crate::workloads::NAMES;

/// Pairs of runs per workload: the fewest a gain may be claimed on.
pub const PAIRS: usize = 10;
/// Pair `k` runs both sides on seed `SEED_BASE + k`.
pub const SEED_BASE: u64 = 1000;
/// Ungated per-layer figures of the traced run that a user sees
/// directly; compared with [`WATCHED_BOUND`]. A metric that reads 0 on
/// both sides (not exercised by the workload) is skipped.
pub const WATCHED: [&str; 6] = [
    "wall.op_p50_ms",
    "wall.op_p90_ms",
    "serve.embed_p99_ms",
    "serve.max_ok_rps",
    "serve.write_p50_ms",
    "serve.write_p90_ms",
];
/// The bound the watched figures are judged against: the largest a
/// gated metric may have. Their spread usually exceeds it, and the
/// verdict then is *unresolved* unless the runs separate completely.
pub const WATCHED_BOUND: f64 = 0.25;

struct Opts {
    sides: [PathBuf; 2],
    workloads: Vec<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let (mut parent, mut change) = (None, None);
    let mut workloads = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(v)),
            "--change" => change = Some(PathBuf::from(v)),
            "--workload" if NAMES.contains(&v.as_str()) => workloads.push(v.clone()),
            "--workload" => return Err(format!("unknown workload {v}")),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if workloads.is_empty() {
        workloads = NAMES.iter().map(|s| s.to_string()).collect();
    }
    Ok(Opts {
        sides: [parent.ok_or("--parent is required")?, change.ok_or("--change is required")?],
        workloads,
    })
}

/// One run's parsed output: run record and result line.
struct RunOut {
    record: Json,
    result: Json,
}

fn run_side(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunOut, String> {
    let out = Command::new("cargo")
        .args(["run", "--release", "--quiet", "--offline", "--manifest-path"])
        .arg(dir.join("perfbench/Cargo.toml"))
        .args(["--", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join(".bench_build"))
        .output()
        .map_err(|e| format!("cannot run cargo in {}: {e}", dir.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let record = stdout.lines().find_map(|l| l.strip_prefix(record::PREFIX)).ok_or_else(|| {
        format!("{}: no run record (exit {:?})", dir.display(), out.status.code())
    })?;
    let result = stdout.lines().last().unwrap_or("");
    Ok(RunOut { record: Json::parse(record)?, result: Json::parse(result)? })
}

/// `run_seconds`, and `(name, better, bound)` of every end-to-end
/// metric, from `bench_json`.
type Bounds = (u64, Vec<(String, Better, f64)>);

fn bounds(bench_json: &Path) -> Result<Bounds, String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("cannot read {}: {e}", bench_json.display()))?;
    let j = Json::parse(&text)?;
    let seconds = j.get("run_seconds").and_then(Json::as_f64).ok_or("no run_seconds")? as u64;
    let list = j.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    let metrics = list
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let better = m.get("better").and_then(Json::as_str).and_then(Better::parse);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (better, bound) {
                (Some(b), Some(x)) => Ok((name.to_string(), b, x)),
                _ => Err(format!("metric {name} lacks better/bound")),
            }
        })
        .collect::<Result<_, String>>()?;
    Ok((seconds, metrics))
}

/// The value of `name` in a result line.
fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn main(args: &[String]) -> ExitCode {
    let o = match parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (seconds, mut metrics) = match bounds(&o.sides[1].join("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    debug_assert!(metrics.iter().all(|(n, ..)| END_TO_END.iter().any(|d| d.name == n)));
    let gated = metrics.len();
    for name in WATCHED {
        let better = def(name).and_then(|d| Better::parse(d.better)).expect("a per-layer metric");
        metrics.push((name.to_string(), better, WATCHED_BOUND));
    }
    println!(
        "{:<20} {:<20} {:>32} {:>32} {:>6} {:>8}  verdict",
        "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "wins", "worse_by"
    );
    let mut first_record: Option<Json> = None;
    for w in &o.workloads {
        let mut values: [Vec<Vec<f64>>; 2] =
            [vec![Vec::new(); metrics.len()], vec![Vec::new(); metrics.len()]];
        for pair in 0..PAIRS {
            let seed = SEED_BASE + pair as u64;
            for k in 0..2 {
                let side = rotated(pair, k, 2);
                // The untraced run gives the gated metrics, the traced
                // run the watched ones.
                for (trace, names) in [(false, 0..gated), (true, gated..metrics.len())] {
                    let run = match run_side(&o.sides[side], w, seed, seconds, trace) {
                        Ok(r) => r,
                        Err(e) => {
                            eprintln!("{w} seed {seed}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    match &first_record {
                        None => first_record = Some(run.record.clone()),
                        Some(r0) => {
                            if let Some(why) = record::incomparable(r0, &run.record) {
                                eprintln!("refusing to compare: {why}");
                                return ExitCode::from(2);
                            }
                        }
                    }
                    if run.result.get("correct").and_then(Json::as_bool) != Some(true) {
                        eprintln!(
                            "{w} seed {seed}: side {} reported wrong output",
                            o.sides[side].display()
                        );
                        return ExitCode::FAILURE;
                    }
                    for i in names {
                        let name = &metrics[i].0;
                        match metric(&run.result, name) {
                            Some(v) => values[side][i].push(v),
                            None => {
                                eprintln!("{w}: metric {name} missing from a result line");
                                return ExitCode::FAILURE;
                            }
                        }
                    }
                }
            }
        }
        for (i, (name, better, bound)) in metrics.iter().enumerate() {
            if values.iter().flat_map(|side| &side[i]).all(|&v| v == 0.0) {
                continue; // a watched figure this workload does not exercise
            }
            let c = compare(&values[0][i], &values[1][i], *better, *bound);
            let q = |t: (f64, f64, f64)| format!("{:.4}/{:.4}/{:.4}", t.0, t.1, t.2);
            println!(
                "{w:<20} {name:<20} {:>32} {:>32} {:>5.0}% {:>+7.1}%  {}{}",
                q(c.parent),
                q(c.change),
                100.0 * c.win_share,
                100.0 * c.worse_by,
                c.verdict.label(),
                if i < gated { "" } else { " (not gated)" }
            );
        }
    }
    ExitCode::SUCCESS
}
