//! # swrun — std-only parallel batch execution for spin-wave gate runs
//!
//! Micromagnetic gate validation is embarrassingly parallel — 8 MAJ3
//! patterns, 4 XOR patterns, temperature and roughness sweeps — but each
//! LLG run takes seconds to minutes and a killed sweep used to restart
//! from zero. This crate is the batch layer the `repro` binary runs on:
//!
//! * [`pool`] — a `std::thread`-based job pool (`--jobs N`) with per-job
//!   panic isolation and wall-time measurement.
//! * JSON comes from the workspace's [`swjson`] crate (the workspace is
//!   dependency-free by policy; see README).
//! * [`manifest`] — JSON-lines run manifests: one flushed line per
//!   completed job, giving crash-safe checkpoint/resume.
//! * [`metrics`] — live `[k/n]` progress and aggregate batch metrics
//!   (wall time, summed job time, realized speedup vs serial).
//! * [`batch`] — the engine tying those together: [`batch::Batch::run`]
//!   skips manifest-completed jobs, fans the rest out, logs and reports.
//! * [`resident`] — a long-lived worker pool with per-job handles for
//!   resident processes (the `swserve` HTTP service), with graceful
//!   drain on close.
//! * [`gates`] — the bridge to [`swgates`]: pattern batches for the
//!   triangle MAJ3/XOR gates with shared drive-trim calibration, sweep
//!   helpers, and [`gates::MemoBackend`] to feed batch results back into
//!   the ordinary truth-table decoding.
//!
//! ## Example
//!
//! ```no_run
//! use swgates::layout::TriangleMaj3Layout;
//! use swgates::mumag::MumagBackend;
//! use swrun::batch::RunOptions;
//! use swrun::gates::maj3_patterns;
//!
//! let backend = MumagBackend::fast();
//! let layout = TriangleMaj3Layout::paper();
//! let options = RunOptions::default()
//!     .with_jobs(4)
//!     .with_manifest("fig5.manifest.jsonl");
//! let report = maj3_patterns(&backend, &layout, &options).unwrap();
//! println!("{}", report.metrics.summary_line());
//! // Re-running with the same manifest skips everything already done.
//! ```

pub mod batch;
pub mod gates;
pub mod manifest;
pub mod metrics;
pub mod pool;
pub mod resident;

use std::fmt;
use std::path::{Path, PathBuf};

pub use batch::{Batch, BatchReport, JobSpec, Outcome, RunOptions};
pub use manifest::{Manifest, ManifestWriter};
pub use metrics::{BatchMetrics, Progress};
pub use pool::{JobFailure, JobOutcome, JobPool};
pub use resident::{JobHandle, JobStage, PoolClosed, ResidentPool};

/// Splits the machine's cores between `jobs` concurrently running
/// simulations, returning the per-simulation thread count (≥ 1).
///
/// Use this to compose batch-level parallelism (swrun jobs) with
/// magnum's intra-simulation threading without oversubscribing: a batch
/// of 4 jobs on a 16-core machine gets 4 threads per simulation.
pub fn thread_budget(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (cores / jobs.max(1)).max(1)
}

/// Errors that abort a batch (individual job failures do not — they are
/// reported per job as [`Outcome::Failed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RunError {
    /// A manifest file could not be opened, read or written.
    Io {
        /// The manifest path.
        path: PathBuf,
        /// The underlying I/O error, rendered.
        reason: String,
    },
    /// Shared batch setup failed (e.g. the drive-trim calibration that
    /// every job depends on).
    Setup {
        /// Description of the failure.
        reason: String,
    },
}

impl RunError {
    pub(crate) fn io(path: &Path, error: &dyn fmt::Display) -> RunError {
        RunError::Io {
            path: path.to_path_buf(),
            reason: error.to_string(),
        }
    }

    pub(crate) fn setup(error: &dyn fmt::Display) -> RunError {
        RunError::Setup {
            reason: error.to_string(),
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Io { path, reason } => {
                write!(f, "manifest {}: {reason}", path.display())
            }
            RunError::Setup { reason } => write!(f, "batch setup failed: {reason}"),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_error_displays_context() {
        let e = RunError::io(Path::new("/tmp/x.jsonl"), &"denied");
        assert!(e.to_string().contains("/tmp/x.jsonl"));
        assert!(e.to_string().contains("denied"));
        let s = RunError::setup(&"calibration diverged");
        assert!(s.to_string().contains("calibration diverged"));
    }

    #[test]
    fn run_error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<RunError>();
    }

    #[test]
    fn thread_budget_splits_cores_without_oversubscribing() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(thread_budget(1), cores);
        // jobs × threads never exceeds the core count (unless a single
        // job cannot go below one thread).
        for jobs in 1..=2 * cores {
            let t = thread_budget(jobs);
            assert!(t >= 1);
            assert!(jobs * t <= cores || t == 1, "jobs {jobs} threads {t}");
        }
        // Degenerate input is clamped rather than dividing by zero.
        assert_eq!(thread_budget(0), cores);
    }
}
