//! Progress reporting and batch metrics.
//!
//! [`Progress`] prints one line per finished job (`[3/8] maj3-011 done
//! in 2.41 s`) from whichever worker thread completed it; [`BatchMetrics`]
//! aggregates the batch afterwards — wall time, summed per-job CPU time
//! and the realized speedup over a serial run of the same jobs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use swjson::Json;

/// Thread-safe live progress printer.
#[derive(Debug)]
pub struct Progress {
    total: usize,
    done: AtomicUsize,
    quiet: bool,
}

impl Progress {
    /// A progress reporter for `total` jobs; `quiet` suppresses output.
    pub fn new(total: usize, quiet: bool) -> Progress {
        Progress {
            total,
            done: AtomicUsize::new(0),
            quiet,
        }
    }

    /// Records one finished job and prints its progress line.
    pub fn job_finished(&self, id: &str, ok: bool, wall: Duration) {
        let k = self.done.fetch_add(1, Ordering::SeqCst) + 1;
        if self.quiet {
            return;
        }
        let status = if ok { "done" } else { "FAILED" };
        eprintln!(
            "[{k}/{total}] {id} {status} in {wall:.2} s",
            total = self.total,
            wall = wall.as_secs_f64()
        );
    }

    /// How many jobs have been reported finished.
    pub fn finished(&self) -> usize {
        self.done.load(Ordering::SeqCst)
    }
}

/// Aggregate metrics of one batch run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMetrics {
    /// Jobs in the batch (including resumed ones).
    pub total: usize,
    /// Jobs that completed successfully this run.
    pub done: usize,
    /// Jobs that failed this run.
    pub failed: usize,
    /// Jobs skipped because a manifest already had their outputs.
    pub resumed: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the whole batch (including calibration).
    pub wall: Duration,
    /// Summed wall time of the individual jobs — what a serial run of
    /// the same jobs would have cost (minus scheduling overhead).
    pub cpu: Duration,
}

impl BatchMetrics {
    /// Realized speedup over running the same jobs serially: summed
    /// per-job time divided by the batch wall time. 1.0 when nothing
    /// overlapped; approaches the worker count under perfect scaling.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall > 0.0 {
            self.cpu.as_secs_f64() / wall
        } else {
            1.0
        }
    }

    /// The metrics as a JSON object (embedded in the manifest summary).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total", Json::Num(self.total as f64)),
            ("done", Json::Num(self.done as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("resumed", Json::Num(self.resumed as f64)),
            ("workers", Json::Num(self.workers as f64)),
            ("wall_ms", Json::Num(self.wall.as_secs_f64() * 1e3)),
            ("cpu_ms", Json::Num(self.cpu.as_secs_f64() * 1e3)),
            ("speedup", Json::Num(self.speedup())),
        ])
    }

    /// One human-readable summary line.
    pub fn summary_line(&self) -> String {
        format!(
            "{done}/{total} done{failed}{resumed} in {wall:.2} s \
             ({workers} worker{plural}, {speedup:.2}x vs serial)",
            done = self.done + self.resumed,
            total = self.total,
            failed = if self.failed > 0 {
                format!(", {} FAILED", self.failed)
            } else {
                String::new()
            },
            resumed = if self.resumed > 0 {
                format!(" ({} resumed)", self.resumed)
            } else {
                String::new()
            },
            wall = self.wall.as_secs_f64(),
            workers = self.workers,
            plural = if self.workers == 1 { "" } else { "s" },
            speedup = self.speedup(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchMetrics {
        BatchMetrics {
            total: 8,
            done: 5,
            failed: 1,
            resumed: 2,
            workers: 4,
            wall: Duration::from_millis(500),
            cpu: Duration::from_millis(1500),
        }
    }

    #[test]
    fn speedup_is_cpu_over_wall() {
        assert!((sample().speedup() - 3.0).abs() < 1e-12);
        let serial = BatchMetrics {
            cpu: Duration::from_millis(500),
            ..sample()
        };
        assert!((serial.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_wall_does_not_divide_by_zero() {
        let m = BatchMetrics {
            wall: Duration::ZERO,
            ..sample()
        };
        assert_eq!(m.speedup(), 1.0);
    }

    #[test]
    fn json_carries_all_fields() {
        let j = sample().to_json();
        assert_eq!(j.get("total").and_then(Json::as_f64), Some(8.0));
        assert_eq!(j.get("resumed").and_then(Json::as_f64), Some(2.0));
        assert_eq!(j.get("workers").and_then(Json::as_f64), Some(4.0));
        assert!((j.get("speedup").and_then(Json::as_f64).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_line_mentions_failures_and_resumes() {
        let line = sample().summary_line();
        assert!(line.contains("7/8 done"), "{line}");
        assert!(line.contains("1 FAILED"), "{line}");
        assert!(line.contains("2 resumed"), "{line}");
        assert!(line.contains("4 workers"), "{line}");
    }

    #[test]
    fn progress_counts_jobs() {
        let p = Progress::new(3, true);
        p.job_finished("a", true, Duration::from_millis(1));
        p.job_finished("b", false, Duration::from_millis(1));
        assert_eq!(p.finished(), 2);
    }
}
