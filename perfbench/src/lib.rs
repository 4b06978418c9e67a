//! The repository benchmark: four named workloads that drive the
//! FusedMM layers through their public functions, end-to-end metrics
//! measured with tracing off, per-layer metrics from a separate traced
//! run, and a paired comparison mode.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     diff --parent <checkout> --change <checkout> [--pairs 10] [--workload <name>]...
//! ```

pub mod diff;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod record;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod workloads;
