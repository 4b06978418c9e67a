//! The four workloads and what they share: the run context, seeded
//! input helpers, repeated cold set-up, and the STREAM ceiling.

pub mod f2v;
pub mod kernel;
pub mod serve;

use std::time::Instant;

use fusedmm_sparse::Dense;

use crate::metrics::Report;
use crate::record::RunRecord;
use crate::spans::Recorder;
use crate::stats::{median, percentile, tail_percentile};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["train-f2v", "kernel-dram", "serve-zipf", "serve-remote-writes"];

/// Directory (relative to the working directory) for worker sockets
/// and the traced run's span dump.
pub const RUN_DIR: &str = ".perfbench";

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// Everything one run carries.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub report: Report,
    pub record: RunRecord,
    /// The main thread's span recorder (enabled only in the traced
    /// phase of a traced run).
    pub rec: Recorder,
}

impl Ctx {
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds: seconds as f64,
            trace,
            report: Report::default(),
            record: RunRecord::new(workload, seed, seconds, trace),
            rec: Recorder::new(false),
        }
    }

    /// A seed for input `salt`, derived from the run's seed.
    pub fn seed_for(&self, salt: u64) -> u64 {
        mix(self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Print an end-to-end figure as a text line under its own name.
    pub fn say(&self, name: &str, value: f64, unit: &str) {
        println!("  {name:<22} {value:>14.6} {unit}");
    }

    /// Print `<prefix>_p50` and the tail percentile the sample supports
    /// (the highest with at least ten samples beyond it), with the
    /// sample count.
    pub fn say_latency(&self, prefix: &str, values: &[f64], unit: &str) {
        if values.is_empty() {
            println!("  {prefix}: no samples");
            return;
        }
        self.say(&format!("{prefix}_p50_{unit}"), median(values), unit);
        match tail_percentile(values.len()) {
            Some(p) => println!(
                "  {:<22} {:>14.6} {unit}   (tail rule: p{p} of n={})",
                format!("{prefix}_tail_{unit}"),
                percentile(values, p),
                values.len()
            ),
            None => println!("  {prefix}: n={} too few samples for a tail", values.len()),
        }
    }
}

/// SplitMix64 finalizer: decorrelates seeds derived from one another.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run `setup` [`SETUPS`] times, tearing each result down before the
/// next so no two deployments coexist, and keep the last. Returns it
/// with the set-up times in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let t0 = Instant::now();
        let v = setup();
        times.push(t0.elapsed().as_secs_f64());
        kept = Some(v);
    }
    (kept.expect("at least one set-up"), times)
}

/// STREAM triad bandwidth in GB/s with each array as large as the
/// last-level cache (three arrays: three times the cache in flight).
pub fn stream_gbs(ctx: &mut Ctx) -> f64 {
    let llc = crate::sys::llc_bytes().max(32 << 20);
    let elements = llc / std::mem::size_of::<f32>();
    let r = fusedmm_perf::stream::stream_triad(elements, 5);
    ctx.record.number("stream_gbs", r.gbytes_per_sec);
    ctx.record.raw("stream_array_bytes", (elements * 4).to_string());
    r.gbytes_per_sec
}

/// True when `got` equals `want` bit for bit.
pub fn bit_identical(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Largest elementwise difference scaled by `1 + |want|`.
pub fn rel_diff(got: &Dense, want: &Dense) -> f32 {
    if got.nrows() != want.nrows() || got.ncols() != want.ncols() {
        return f32::INFINITY;
    }
    got.as_slice()
        .iter()
        .zip(want.as_slice())
        .map(|(a, b)| (a - b).abs() / (1.0 + b.abs()))
        .fold(0.0, f32::max)
}

/// Numeric code of a resolved blocking level, for the per-layer
/// result: a specialized shape `m{M}-h{H}` is `1000·M + H`; the fixed
/// levels are 1 register-blocked, 2 strip-mined, 3 dynamic strips,
/// 4 generic, 5 hybrid, 0 unresolved.
pub fn blocking_code(b: fusedmm_core::Blocking) -> f64 {
    use fusedmm_core::Blocking;
    match b {
        Blocking::Auto => 0.0,
        Blocking::RegisterBlocked => 1.0,
        Blocking::StripMined => 2.0,
        Blocking::DynStrips => 3.0,
        Blocking::Generic => 4.0,
        Blocking::Hybrid(_) => 5.0,
        Blocking::Specialized(s) => (1000 * s.main_panels() + s.h_chunk()) as f64,
    }
}

/// Readable label of a resolved blocking level.
pub fn blocking_label(b: fusedmm_core::Blocking) -> String {
    match b {
        fusedmm_core::Blocking::Specialized(s) => format!("m{}-h{}", s.main_panels(), s.h_chunk()),
        other => format!("{other:?}"),
    }
}
