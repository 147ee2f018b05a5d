//! The batch engine: jobs in, outcomes out, with parallelism, manifest
//! logging and checkpoint/resume handled in one place.
//!
//! A [`Batch`] is a named list of [`JobSpec`]s. [`Batch::run`] consults
//! the manifest (if one is configured and resume is enabled), skips jobs
//! whose outputs are already recorded, fans the remainder out over a
//! [`JobPool`](crate::pool::JobPool), logs every completion as a JSON
//! line, and returns per-job [`Outcome`]s in input order plus the
//! aggregate [`BatchMetrics`].

use std::path::PathBuf;
use std::time::Instant;

use swjson::Json;

use crate::manifest::{Manifest, ManifestWriter};
use crate::metrics::{BatchMetrics, Progress};
use crate::pool::JobPool;
use crate::RunError;

/// How a batch should execute.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads (1 = serial, the default).
    pub jobs: usize,
    /// Manifest file to log to (and resume from), if any.
    pub manifest: Option<PathBuf>,
    /// Whether to skip jobs already completed in the manifest. With
    /// `false` the manifest is truncated and every job reruns.
    pub resume: bool,
    /// Suppresses per-job progress lines.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            jobs: 1,
            manifest: None,
            resume: true,
            quiet: false,
        }
    }
}

impl RunOptions {
    /// Serial, no manifest, with live progress.
    pub fn serial() -> Self {
        RunOptions::default()
    }

    /// Sets the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Sets the manifest path.
    pub fn with_manifest(mut self, path: impl Into<PathBuf>) -> Self {
        self.manifest = Some(path.into());
        self
    }

    /// Disables resume (forces a fresh run, truncating the manifest).
    pub fn fresh(mut self) -> Self {
        self.resume = false;
        self
    }

    /// Suppresses progress output.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }
}

/// One job: a stable id (the resume key), its inputs as recorded in the
/// manifest, and the payload handed to the worker.
#[derive(Debug, Clone)]
pub struct JobSpec<T> {
    /// Stable identifier — must be unique within the batch and identical
    /// across runs for resume to recognize the job.
    pub id: String,
    /// Inputs, recorded verbatim in the manifest.
    pub inputs: Json,
    /// The value handed to the worker function.
    pub payload: T,
}

/// What happened to one job.
#[derive(Debug, Clone)]
pub enum Outcome<R> {
    /// Ran this time; carries the worker's value and its manifest JSON.
    Fresh(R, Json),
    /// Skipped — the manifest already had its outputs.
    Resumed(Json),
    /// Failed (worker error or panic); carries the message.
    Failed(String),
}

impl<R> Outcome<R> {
    /// The job's outputs as JSON, whether fresh or resumed.
    pub fn outputs(&self) -> Option<&Json> {
        match self {
            Outcome::Fresh(_, json) | Outcome::Resumed(json) => Some(json),
            Outcome::Failed(_) => None,
        }
    }

    /// The worker's in-memory value, if the job ran this time.
    pub fn value(&self) -> Option<&R> {
        match self {
            Outcome::Fresh(value, _) => Some(value),
            _ => None,
        }
    }

    /// True if the job was skipped via the manifest.
    pub fn is_resumed(&self) -> bool {
        matches!(self, Outcome::Resumed(_))
    }

    /// The failure message, if the job failed.
    pub fn error(&self) -> Option<&str> {
        match self {
            Outcome::Failed(message) => Some(message),
            _ => None,
        }
    }
}

/// The result of running a batch.
#[derive(Debug)]
pub struct BatchReport<R> {
    /// Per-job outcomes, in the order the jobs were supplied.
    pub outcomes: Vec<Outcome<R>>,
    /// Aggregate timing and counts.
    pub metrics: BatchMetrics,
}

impl<R> BatchReport<R> {
    /// The first failure message, if any job failed.
    pub fn first_error(&self) -> Option<&str> {
        self.outcomes.iter().find_map(Outcome::error)
    }
}

/// A named collection of jobs ready to run.
#[derive(Debug)]
pub struct Batch<T> {
    name: String,
    specs: Vec<JobSpec<T>>,
}

impl<T: Sync> Batch<T> {
    /// A batch named `name` (recorded in the manifest header) over the
    /// given jobs.
    pub fn new(name: impl Into<String>, specs: Vec<JobSpec<T>>) -> Batch<T> {
        Batch {
            name: name.into(),
            specs,
        }
    }

    /// The job specs, in order.
    pub fn specs(&self) -> &[JobSpec<T>] {
        &self.specs
    }

    /// How many jobs would actually execute under `options` — i.e. are
    /// not already completed in the manifest. Lets callers skip shared
    /// setup (calibration) when a resumed batch has nothing left to do.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] if the manifest exists but cannot be
    /// read.
    pub fn pending(&self, options: &RunOptions) -> Result<usize, RunError> {
        let completed = match (&options.manifest, options.resume) {
            (Some(path), true) => Manifest::load(path)?.completed(),
            _ => Default::default(),
        };
        Ok(self
            .specs
            .iter()
            .filter(|s| !completed.contains_key(&s.id))
            .count())
    }

    /// Runs the batch. `worker(payload)` produces the job's in-memory
    /// value and its manifest JSON; it runs on pool threads and must not
    /// assume any job ordering.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] for manifest I/O problems. Per-job failures
    /// (including panics) do **not** abort the batch — they come back as
    /// [`Outcome::Failed`].
    pub fn run<R, F>(&self, options: &RunOptions, worker: F) -> Result<BatchReport<R>, RunError>
    where
        R: Send,
        F: Fn(&T) -> Result<(R, Json), String> + Sync,
    {
        let start = Instant::now();

        // Resume bookkeeping: outputs already on disk, keyed by job id.
        let completed = match (&options.manifest, options.resume) {
            (Some(path), true) => Manifest::load(path)?.completed(),
            _ => Default::default(),
        };
        let writer = options
            .manifest
            .as_deref()
            .map(|path| ManifestWriter::open(path, options.resume))
            .transpose()?;

        let pending: Vec<usize> = (0..self.specs.len())
            .filter(|&i| !completed.contains_key(&self.specs[i].id))
            .collect();
        let resumed = self.specs.len() - pending.len();
        if let Some(w) = &writer {
            w.batch_header(&self.name, self.specs.len(), resumed, options.jobs)?;
        }
        if !options.quiet && resumed > 0 {
            eprintln!(
                "{}: resuming — {resumed}/{} job(s) already in manifest",
                self.name,
                self.specs.len()
            );
        }

        let progress = Progress::new(pending.len(), options.quiet);
        let outcomes_pending = JobPool::new(options.jobs).run(
            &pending,
            |_, &spec_index| worker(&self.specs[spec_index].payload),
            |slot, outcome| {
                let spec = &self.specs[pending[slot]];
                let wall_ms = outcome.wall.as_secs_f64() * 1e3;
                progress.job_finished(&spec.id, outcome.result.is_ok(), outcome.wall);
                if let Some(w) = &writer {
                    // A manifest write failure must not kill the worker
                    // thread mid-batch; surface it and keep computing.
                    let logged = match &outcome.result {
                        Ok((_, json)) => {
                            w.job_done(&spec.id, spec.inputs.clone(), json.clone(), wall_ms)
                        }
                        Err(failure) => w.job_failed(
                            &spec.id,
                            spec.inputs.clone(),
                            &failure.to_string(),
                            wall_ms,
                        ),
                    };
                    if let Err(e) = logged {
                        eprintln!("warning: manifest write failed: {e}");
                    }
                }
            },
        );

        // Reassemble in input order.
        let mut cpu = std::time::Duration::ZERO;
        let mut done = 0usize;
        let mut failed = 0usize;
        let mut fresh: Vec<Option<Outcome<R>>> = outcomes_pending
            .into_iter()
            .map(|o| {
                cpu += o.wall;
                Some(match o.result {
                    Ok((value, json)) => {
                        done += 1;
                        Outcome::Fresh(value, json)
                    }
                    Err(failure) => {
                        failed += 1;
                        Outcome::Failed(failure.to_string())
                    }
                })
            })
            .collect();
        let mut slot_of = vec![usize::MAX; self.specs.len()];
        for (slot, &spec_index) in pending.iter().enumerate() {
            slot_of[spec_index] = slot;
        }
        let outcomes: Vec<Outcome<R>> = self
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if slot_of[i] != usize::MAX {
                    fresh[slot_of[i]].take().expect("each slot consumed once")
                } else {
                    Outcome::Resumed(completed[&spec.id].clone())
                }
            })
            .collect();

        let metrics = BatchMetrics {
            total: self.specs.len(),
            done,
            failed,
            resumed,
            workers: options.jobs.max(1),
            wall: start.elapsed(),
            cpu,
        };
        if let Some(w) = &writer {
            w.summary(&metrics.to_json())?;
        }
        if !options.quiet {
            eprintln!("{}: {}", self.name, metrics.summary_line());
        }
        Ok(BatchReport { outcomes, metrics })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: &str, payload: i64) -> JobSpec<i64> {
        JobSpec {
            id: id.to_string(),
            inputs: Json::obj([("x", Json::Num(payload as f64))]),
            payload,
        }
    }

    fn square(x: &i64) -> Result<(i64, Json), String> {
        let sq = x * x;
        Ok((sq, Json::obj([("sq", Json::Num(sq as f64))])))
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("swrun-batch-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn parallel_matches_serial() {
        let specs: Vec<JobSpec<i64>> = (0..12).map(|i| spec(&format!("j{i}"), i)).collect();
        let batch = Batch::new("squares", specs);
        let values = |jobs: usize| {
            batch
                .run(&RunOptions::serial().with_jobs(jobs).quiet(), square)
                .unwrap()
                .outcomes
                .iter()
                .map(|o| *o.value().unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(values(1), values(6));
    }

    #[test]
    fn resume_skips_completed_jobs() {
        let path = temp_path("resume.jsonl");
        std::fs::remove_file(&path).ok();
        let specs: Vec<JobSpec<i64>> = (0..4).map(|i| spec(&format!("j{i}"), i)).collect();
        let options = RunOptions::serial().with_manifest(&path).quiet();

        // First run: j1 fails, the rest succeed.
        let batch = Batch::new("resume-test", specs.clone());
        let report = batch
            .run(&options, |&x| {
                if x == 1 {
                    Err("flaky".to_string())
                } else {
                    square(&x)
                }
            })
            .unwrap();
        assert_eq!(report.metrics.done, 3);
        assert_eq!(report.metrics.failed, 1);

        // Second run: only the failed job executes; the worker proves it
        // by panicking on anything else.
        let report = Batch::new("resume-test", specs)
            .run(&options, |&x| {
                assert_eq!(x, 1, "completed job was re-run");
                square(&x)
            })
            .unwrap();
        assert_eq!(report.metrics.resumed, 3);
        assert_eq!(report.metrics.done, 1);
        assert!(report.outcomes[0].is_resumed());
        assert!(!report.outcomes[1].is_resumed());
        // Resumed outputs carry the recorded JSON.
        assert_eq!(
            report.outcomes[2]
                .outputs()
                .unwrap()
                .get("sq")
                .and_then(Json::as_f64),
            Some(4.0)
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fresh_option_reruns_everything() {
        let path = temp_path("fresh.jsonl");
        std::fs::remove_file(&path).ok();
        let specs: Vec<JobSpec<i64>> = (0..3).map(|i| spec(&format!("j{i}"), i)).collect();
        let resume = RunOptions::serial().with_manifest(&path).quiet();
        Batch::new("fresh-test", specs.clone())
            .run(&resume, square)
            .unwrap();

        let report = Batch::new("fresh-test", specs)
            .run(&resume.clone().fresh(), square)
            .unwrap();
        assert_eq!(report.metrics.resumed, 0);
        assert_eq!(report.metrics.done, 3);
        // The truncated manifest only holds the fresh run's records:
        // 1 header + 3 jobs + 1 summary.
        let manifest = Manifest::load(&path).unwrap();
        assert_eq!(manifest.records().len(), 5);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn panics_become_failed_outcomes() {
        let specs: Vec<JobSpec<i64>> = (0..4).map(|i| spec(&format!("j{i}"), i)).collect();
        let report = Batch::new("panicky", specs)
            .run(&RunOptions::serial().with_jobs(2).quiet(), |&x| {
                if x == 2 {
                    panic!("boom at {x}");
                }
                square(&x)
            })
            .unwrap();
        assert_eq!(report.metrics.failed, 1);
        assert!(report.outcomes[2].error().unwrap().contains("boom"));
        assert!(report.first_error().unwrap().contains("boom"));
        // The other jobs are unaffected.
        assert_eq!(*report.outcomes[3].value().unwrap(), 9);
    }

    #[test]
    fn no_manifest_means_no_resume() {
        let specs = vec![spec("only", 5)];
        let report = Batch::new("nomanifest", specs)
            .run(&RunOptions::serial().quiet(), square)
            .unwrap();
        assert_eq!(report.metrics.resumed, 0);
        assert_eq!(*report.outcomes[0].value().unwrap(), 25);
    }
}
