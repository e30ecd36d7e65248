//! Continuous-verification benchmark for the covern stack.
//!
//! Each workload runs from a seed, checks every verdict it observes
//! against the in-process engine's canonical verdicts, and prints its
//! metrics as one JSON object (see `perfbench/README.md`).

pub mod catalog;
pub mod cluster;
pub mod corpus;
pub mod daemon;
pub mod gate;
pub mod inproc;
pub mod output;
pub mod probes;
pub mod prom;
pub mod stats;
pub mod sys;
pub mod trace;

use std::path::PathBuf;

/// Thread budget of every workload: campaign threads, daemon workers,
/// client connections and cluster workers.
pub const THREADS: usize = 2;

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `covern_cli` binary the service workloads spawn.
    pub cli: PathBuf,
    /// Directory for the run's own files (stores, trace spans).
    pub scratch: PathBuf,
}
