use std::process::{Command, ExitCode};

use fusedmm_perf::memtrack;

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workloads::{self, f2v, kernel, serve, Ctx, NAMES};
use perfbench::{diff, record, spans, sys};

// Peak live heap is the gated memory metric: on a shared machine the
// resident set of one program moves with allocator arenas and thread
// stacks from run to run, the bytes the program allocates do not.
#[global_allocator]
static ALLOC: memtrack::CountingAllocator = memtrack::CountingAllocator;

const USAGE: &str =
    "usage: perfbench --workload <train-f2v|kernel-dram|serve-zipf|serve-remote-writes|all> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench diff --parent <dir> --change <dir> \
[--workload <name>]...";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workload: String::new(), seed: 1, seconds: 20, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => a.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("diff") {
        return diff::main(&args[1..]);
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if a.workload == "all" {
        return run_all(&a);
    }
    run_one(&a)
}

/// Every workload, untraced then traced, each in its own process so
/// peak memory and process-wide state stay per workload.
fn run_all(a: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in NAMES {
        for trace in ["0", "1"] {
            println!("==> {w} (trace {trace})");
            let status = Command::new(&exe)
                .args(["--workload", w, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string(), "--trace", trace])
                .status()
                .expect("run a workload");
            ok &= status.success();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(a: &Args) -> ExitCode {
    let mut ctx = Ctx::new(&a.workload, a.seed, a.seconds, a.trace);
    match a.workload.as_str() {
        "train-f2v" => f2v::run(&mut ctx),
        "kernel-dram" => kernel::run(&mut ctx),
        "serve-zipf" => serve::run_zipf(&mut ctx),
        "serve-remote-writes" => serve::run_remote(&mut ctx),
        other => unreachable!("workload {other} passed validation"),
    }
    let set = if a.trace {
        write_span_dump(&mut ctx, &a.workload, a.seed);
        PER_LAYER
    } else {
        let error_rate = ctx.report.error_rate();
        let heap_mb = memtrack::peak_bytes() as f64 / (1 << 20) as f64;
        ctx.report.set("heap_peak_mb", heap_mb);
        ctx.report.set("ok_rate", 1.0 - error_rate);
        ctx.say("heap_peak_mb", heap_mb, "MB");
        ctx.say("rss_peak_mb", sys::rss_peak_mb(), "MB");
        ctx.say("error_rate", error_rate, "ratio");
        END_TO_END
    };
    for d in set {
        let value = ctx.report.get(d.name).unwrap_or(0.0);
        println!("  {:<36} {value:>16.6} {:<8} moves: {}", d.name, d.unit, d.moves);
    }
    println!("{}{}", record::PREFIX, ctx.record.to_json());
    println!("{}", ctx.report.result_line(set, a.trace));
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write the traced run's spans as chrome://tracing JSON and print the
/// per-name totals with self time.
fn write_span_dump(ctx: &mut Ctx, workload: &str, seed: u64) {
    let all = ctx.rec.take();
    let path =
        std::path::Path::new(workloads::RUN_DIR).join(format!("spans-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(workloads::RUN_DIR)
        .and_then(|_| std::fs::write(&path, spans::chrome_json(&all)));
    match written {
        Ok(()) => println!("  span dump: {} ({} spans)", path.display(), all.len()),
        Err(e) => eprintln!("could not write the span dump {}: {e}", path.display()),
    }
    ctx.record.text("span_dump", &path.display().to_string());
    println!("  {:<22} {:>8} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, (count, total, own)) in spans::totals(&all) {
        println!("  {name:<22} {count:>8} {:>12.6} {:>12.6}", total as f64 / 1e9, own as f64 / 1e9);
    }
}
