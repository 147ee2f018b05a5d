//! JSON-lines run manifests: the batch runner's on-disk log and its
//! checkpoint/resume source of truth.
//!
//! A manifest is an append-only text file with one JSON object per line:
//!
//! * a `batch` record each time a batch (re)starts on the file,
//! * a `job` record the moment each job finishes (`done` or `failed`),
//!   carrying its inputs, outputs and wall time,
//! * a `summary` record when the batch completes, with the aggregate
//!   metrics.
//!
//! Every line is flushed as soon as the job completes, so a killed run
//! leaves a valid prefix; on the next run [`Manifest::load`] replays the
//! file, [`Manifest::completed`] yields the jobs that already succeeded,
//! and the batch skips them. A final line truncated mid-write by the
//! kill is tolerated (ignored), as are `failed` records — failed jobs
//! are retried on resume.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use swjson::Json;

use crate::RunError;

/// Appends manifest records; safe to share across worker threads.
#[derive(Debug)]
pub struct ManifestWriter {
    file: Mutex<File>,
    path: PathBuf,
}

impl ManifestWriter {
    /// Opens a manifest for appending (`append = true`, the resume
    /// case) or afresh, truncating any previous contents.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] if the file cannot be opened.
    pub fn open(path: &Path, append: bool) -> Result<ManifestWriter, RunError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .append(append)
            .truncate(!append)
            .open(path)
            .map_err(|e| RunError::io(path, &e))?;
        Ok(ManifestWriter {
            file: Mutex::new(file),
            path: path.to_path_buf(),
        })
    }

    /// The path this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one record as a JSON line and flushes it.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] on write failure.
    pub fn record(&self, record: &Json) -> Result<(), RunError> {
        let line = record.render();
        let mut file = self.file.lock().expect("manifest writer poisoned");
        writeln!(file, "{line}").map_err(|e| RunError::io(&self.path, &e))?;
        file.flush().map_err(|e| RunError::io(&self.path, &e))
    }

    /// Writes the batch-start header.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] on write failure.
    pub fn batch_header(
        &self,
        name: &str,
        total: usize,
        resumed: usize,
        jobs: usize,
    ) -> Result<(), RunError> {
        self.record(&Json::obj([
            ("record", Json::str("batch")),
            ("name", Json::str(name)),
            ("total", Json::Num(total as f64)),
            ("resumed", Json::Num(resumed as f64)),
            ("jobs", Json::Num(jobs as f64)),
        ]))
    }

    /// Writes a completed job's record.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] on write failure.
    pub fn job_done(
        &self,
        id: &str,
        inputs: Json,
        outputs: Json,
        wall_ms: f64,
    ) -> Result<(), RunError> {
        self.record(&Json::obj([
            ("record", Json::str("job")),
            ("id", Json::str(id)),
            ("status", Json::str("done")),
            ("inputs", inputs),
            ("outputs", outputs),
            ("wall_ms", Json::Num(wall_ms)),
        ]))
    }

    /// Writes a failed job's record.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] on write failure.
    pub fn job_failed(
        &self,
        id: &str,
        inputs: Json,
        error: &str,
        wall_ms: f64,
    ) -> Result<(), RunError> {
        self.record(&Json::obj([
            ("record", Json::str("job")),
            ("id", Json::str(id)),
            ("status", Json::str("failed")),
            ("inputs", inputs),
            ("error", Json::str(error)),
            ("wall_ms", Json::Num(wall_ms)),
        ]))
    }

    /// Writes the batch summary footer.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] on write failure.
    pub fn summary(&self, metrics: &Json) -> Result<(), RunError> {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("record".to_string(), Json::str("summary"));
        if let Json::Obj(fields) = metrics {
            for (k, v) in fields {
                obj.insert(k.clone(), v.clone());
            }
        }
        self.record(&Json::Obj(obj))
    }
}

/// A parsed manifest: the records of previous runs on the same file.
#[derive(Debug, Default)]
pub struct Manifest {
    records: Vec<Json>,
}

impl Manifest {
    /// Loads a manifest file. A missing file yields an empty manifest
    /// (nothing to resume). Unparseable lines — e.g. one truncated by a
    /// kill mid-write — are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Io`] only for real I/O failures (permission,
    /// read error), never for content problems.
    pub fn load(path: &Path) -> Result<Manifest, RunError> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok(Manifest::default());
            }
            Err(e) => return Err(RunError::io(path, &e)),
        };
        let mut records = Vec::new();
        for line in BufReader::new(file).lines() {
            let line = line.map_err(|e| RunError::io(path, &e))?;
            if line.trim().is_empty() {
                continue;
            }
            if let Ok(value) = Json::parse(&line) {
                records.push(value);
            }
        }
        Ok(Manifest { records })
    }

    /// All parsed records, in file order.
    pub fn records(&self) -> &[Json] {
        &self.records
    }

    /// Outputs of every job that completed successfully, by job id. If a
    /// job id appears more than once (retried across runs), the last
    /// successful record wins.
    pub fn completed(&self) -> HashMap<String, Json> {
        let mut done = HashMap::new();
        for record in &self.records {
            if record.get("record").and_then(Json::as_str) != Some("job") {
                continue;
            }
            if record.get("status").and_then(Json::as_str) != Some("done") {
                continue;
            }
            let (Some(id), Some(outputs)) = (
                record.get("id").and_then(Json::as_str),
                record.get("outputs"),
            ) else {
                continue;
            };
            done.insert(id.to_string(), outputs.clone());
        }
        done
    }

    /// Ids of jobs whose most recent record is a failure (and that never
    /// later succeeded) — reported so a resumed batch can say what it is
    /// retrying.
    pub fn failed_ids(&self) -> Vec<String> {
        let completed = self.completed();
        let mut failed = Vec::new();
        for record in &self.records {
            if record.get("record").and_then(Json::as_str) != Some("job") {
                continue;
            }
            if record.get("status").and_then(Json::as_str) != Some("failed") {
                continue;
            }
            if let Some(id) = record.get("id").and_then(Json::as_str) {
                if !completed.contains_key(id) && !failed.iter().any(|f| f == id) {
                    failed.push(id.to_string());
                }
            }
        }
        failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("swrun-manifest-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn round_trips_job_records() {
        let path = temp_path("roundtrip.jsonl");
        let writer = ManifestWriter::open(&path, false).unwrap();
        writer.batch_header("fig5", 8, 0, 4).unwrap();
        writer
            .job_done(
                "maj3-011",
                Json::obj([("pattern", Json::str("011"))]),
                Json::obj([("o1_mag", Json::Num(1.25e-4))]),
                321.5,
            )
            .unwrap();
        writer
            .job_failed("maj3-100", Json::Null, "solver blew up", 12.0)
            .unwrap();
        drop(writer);

        let manifest = Manifest::load(&path).unwrap();
        assert_eq!(manifest.records().len(), 3);
        let completed = manifest.completed();
        assert_eq!(completed.len(), 1);
        let outputs = &completed["maj3-011"];
        assert_eq!(outputs.get("o1_mag").and_then(Json::as_f64), Some(1.25e-4));
        assert_eq!(manifest.failed_ids(), vec!["maj3-100".to_string()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_an_empty_manifest() {
        let manifest = Manifest::load(Path::new("/nonexistent/swrun.jsonl")).unwrap();
        assert!(manifest.records().is_empty());
        assert!(manifest.completed().is_empty());
    }

    #[test]
    fn truncated_final_line_is_ignored() {
        let path = temp_path("truncated.jsonl");
        let writer = ManifestWriter::open(&path, false).unwrap();
        writer
            .job_done("a", Json::Null, Json::obj([("v", Json::Num(1.0))]), 5.0)
            .unwrap();
        drop(writer);
        // Simulate a kill mid-write of the next record.
        let mut file = OpenOptions::new().append(true).open(&path).unwrap();
        write!(file, "{{\"record\":\"job\",\"id\":\"b\",\"stat").unwrap();
        drop(file);

        let manifest = Manifest::load(&path).unwrap();
        assert_eq!(manifest.records().len(), 1);
        assert!(manifest.completed().contains_key("a"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn later_success_overrides_earlier_failure() {
        let path = temp_path("retry.jsonl");
        let writer = ManifestWriter::open(&path, false).unwrap();
        writer
            .job_failed("x", Json::Null, "first try", 1.0)
            .unwrap();
        drop(writer);
        // Second run appends.
        let writer = ManifestWriter::open(&path, true).unwrap();
        writer
            .job_done("x", Json::Null, Json::obj([("v", Json::Num(2.0))]), 1.0)
            .unwrap();
        drop(writer);

        let manifest = Manifest::load(&path).unwrap();
        assert_eq!(manifest.records().len(), 2);
        assert!(manifest.completed().contains_key("x"));
        assert!(manifest.failed_ids().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn summary_merges_metric_fields() {
        let path = temp_path("summary.jsonl");
        let writer = ManifestWriter::open(&path, false).unwrap();
        writer
            .summary(&Json::obj([
                ("done", Json::Num(8.0)),
                ("speedup", Json::Num(3.2)),
            ]))
            .unwrap();
        drop(writer);
        let manifest = Manifest::load(&path).unwrap();
        let record = &manifest.records()[0];
        assert_eq!(record.get("record").and_then(Json::as_str), Some("summary"));
        assert_eq!(record.get("speedup").and_then(Json::as_f64), Some(3.2));
        std::fs::remove_file(&path).ok();
    }
}
