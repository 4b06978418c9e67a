//! The run record: what a result depends on besides the code. It
//! carries the fields of the repository's `run_meta` (git SHA, ISA
//! features, backend, threads) and adds the core count, last-level
//! cache size, operand bytes, the measured STREAM bandwidth, the seed
//! and each plan's resolved blocking. The comparison mode refuses to
//! pair records whose backend or thread count differ.
//!
//! The SHA is read from `.git` in the working directory only (or
//! `GITHUB_SHA`); `run_meta` asks `git`, which searches parent
//! directories, and the benchmark reads nothing outside its checkout.

use crate::json;

/// Prefix of the run-record line on standard output.
pub const PREFIX: &str = "run_record ";

/// An ordered set of `key: JSON value` fields.
#[derive(Debug, Default)]
pub struct RunRecord {
    fields: Vec<(String, String)>,
}

impl RunRecord {
    /// The record every run starts with.
    pub fn new(workload: &str, seed: u64, seconds: u64, trace: bool) -> RunRecord {
        let mut r = RunRecord::default();
        let cpu = fusedmm_core::cpu_features();
        let features: Vec<String> = cpu
            .detected
            .iter()
            .map(|(name, present)| format!("{name}={}", if *present { "yes" } else { "no" }))
            .collect();
        r.text("workload", workload);
        r.raw("seed", seed.to_string());
        r.raw("seconds", seconds.to_string());
        r.raw("trace", trace.to_string());
        r.text("git", &git_sha().unwrap_or_else(|| "unknown".into()));
        r.text("arch", cpu.arch);
        r.text("features", &features.join(" "));
        r.text("backend", &cpu.backend.to_string());
        r.raw("forced_scalar", cpu.forced_scalar.to_string());
        r.raw("threads", rayon::current_num_threads().to_string());
        r.raw("nproc", crate::sys::nproc().to_string());
        r.raw("llc_bytes", crate::sys::llc_bytes().to_string());
        r
    }

    /// Set `key` to a string value.
    pub fn text(&mut self, key: &str, value: &str) {
        self.raw(key, json::quote(value));
    }

    /// Set `key` to a number.
    pub fn number(&mut self, key: &str, value: f64) {
        self.raw(key, json::num(value));
    }

    /// Set `key` to an already-encoded JSON value (replacing any
    /// earlier value).
    pub fn raw(&mut self, key: &str, value: String) {
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.fields.push((key.to_string(), value)),
        }
    }

    /// The record as one JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{}:{}", json::quote(k), v)).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The checked-out commit: `GITHUB_SHA`, else `.git/HEAD` in the
/// working directory, following one symbolic ref (loose or packed).
fn git_sha() -> Option<String> {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return Some(sha);
        }
    }
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return Some(head.to_string()) };
    if let Ok(sha) = std::fs::read_to_string(format!(".git/{name}")) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| l.strip_suffix(name).map(|sha| sha.trim().to_string()))
}

/// Why two run records may not be compared, if they may not: a
/// different SIMD backend or thread count makes the timings measure
/// different programs.
pub fn incomparable(a: &json::Json, b: &json::Json) -> Option<String> {
    for key in ["backend", "threads"] {
        let (va, vb) = (a.get(key), b.get(key));
        if va.is_none() || va != vb {
            return Some(format!("run records differ in {key}: {va:?} vs {vb:?}"));
        }
    }
    None
}
