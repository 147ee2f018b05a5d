//! The bridge from the batch engine to the spin-wave gates: pattern
//! batches over [`MumagBackend`], sweep helpers, and a memoized
//! [`GateBackend`] that feeds batch results back into the ordinary
//! truth-table decoding.
//!
//! The expensive shared state is the drive-trim calibration (3 LLG runs
//! for MAJ3, 2 for XOR). Batches prewarm it **once** on the supplied
//! backend before fanning out; the workers run on clones, which share
//! the trim cache, so every pattern job starts from the identical
//! calibration — this is what makes a parallel truth table bit-for-bit
//! equal to a serial one at T = 0.

use std::collections::HashMap;

use magnum::Complex64;
use swgates::encoding::{all_patterns, Bit};
use swgates::gates::GateBackend;
use swgates::layout::{TriangleMaj3Layout, TriangleXorLayout};
use swgates::mumag::{GateRun, MumagBackend};
use swgates::SwGateError;
use swjson::Json;

use crate::batch::{Batch, JobSpec, Outcome, RunOptions};
use crate::metrics::BatchMetrics;
use crate::RunError;

/// Stable job id for a gate pattern: `"maj3-011"` means
/// (I1, I2, I3) = (0, 1, 1).
pub fn pattern_id<const N: usize>(prefix: &str, pattern: [Bit; N]) -> String {
    let bits: String = pattern.iter().map(Bit::to_string).collect();
    format!("{prefix}-{bits}")
}

/// Manifest JSON for one gate run: output magnitudes and phases, the
/// drive frequency and the simulated time.
pub fn run_to_json(run: &GateRun) -> Json {
    Json::obj([
        ("o1_mag", Json::Num(run.o1.abs())),
        ("o1_phase", Json::Num(run.o1.arg())),
        ("o2_mag", Json::Num(run.o2.abs())),
        ("o2_phase", Json::Num(run.o2.arg())),
        ("frequency", Json::Num(run.frequency)),
        ("simulated_time", Json::Num(run.simulated_time)),
    ])
}

/// Reconstructs the `(O1, O2)` phasors from a manifest record written by
/// [`run_to_json`].
pub fn phasors_from_json(json: &Json) -> Option<(Complex64, Complex64)> {
    let field = |k: &str| json.get(k).and_then(Json::as_f64);
    Some((
        Complex64::from_polar(field("o1_mag")?, field("o1_phase")?),
        Complex64::from_polar(field("o2_mag")?, field("o2_phase")?),
    ))
}

/// One pattern's result in a gate batch.
#[derive(Debug, Clone)]
pub struct PatternOutcome<const N: usize> {
    /// The input pattern (index 0 = I1).
    pub pattern: [Bit; N],
    /// The `(O1, O2)` phasors — exact for fresh runs, reconstructed from
    /// the manifest for resumed ones, `None` on failure.
    pub phasors: Option<(Complex64, Complex64)>,
    /// The full run (with field snapshot) — fresh runs only; resumed
    /// jobs carry just the manifest scalars.
    pub run: Option<GateRun>,
    /// True if the job was skipped via the manifest.
    pub resumed: bool,
    /// The failure message, if the job failed.
    pub error: Option<String>,
}

/// The result of a gate pattern batch.
#[derive(Debug)]
pub struct PatternBatchReport<const N: usize> {
    /// One outcome per input pattern, in binary counting order.
    pub patterns: Vec<PatternOutcome<N>>,
    /// Aggregate batch metrics.
    pub metrics: BatchMetrics,
}

impl<const N: usize> PatternBatchReport<N> {
    /// The first failure message, if any pattern failed.
    pub fn first_error(&self) -> Option<&str> {
        self.patterns.iter().find_map(|p| p.error.as_deref())
    }

    /// Pattern → phasors map over every successful pattern.
    fn phasor_map(&self) -> HashMap<[Bit; N], (Complex64, Complex64)> {
        self.patterns
            .iter()
            .filter_map(|p| p.phasors.map(|ph| (p.pattern, ph)))
            .collect()
    }
}

impl PatternBatchReport<3> {
    /// Wraps the batch results in a [`MemoBackend`] so the ordinary
    /// `Maj3Gate::truth_table` decoding runs on them unchanged.
    pub fn memo(&self) -> MemoBackend {
        MemoBackend {
            maj3: self.phasor_map(),
            xor: HashMap::new(),
        }
    }
}

impl PatternBatchReport<2> {
    /// Wraps the batch results in a [`MemoBackend`] so the ordinary
    /// `XorGate::truth_table` decoding runs on them unchanged.
    pub fn memo(&self) -> MemoBackend {
        MemoBackend {
            maj3: HashMap::new(),
            xor: self.phasor_map(),
        }
    }
}

/// A [`GateBackend`] that answers from precomputed pattern → phasor
/// maps. Built by [`PatternBatchReport::memo`]; the layout argument is
/// ignored (the map was computed for one specific layout).
#[derive(Debug, Clone, Default)]
pub struct MemoBackend {
    maj3: HashMap<[Bit; 3], (Complex64, Complex64)>,
    xor: HashMap<[Bit; 2], (Complex64, Complex64)>,
}

impl MemoBackend {
    fn lookup<const N: usize>(
        map: &HashMap<[Bit; N], (Complex64, Complex64)>,
        inputs: [Bit; N],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        map.get(&inputs)
            .copied()
            .ok_or_else(|| SwGateError::Simulation {
                reason: format!(
                    "pattern {:?} is not in the batch results (job failed or batch incomplete)",
                    inputs.map(|b| b.as_u8())
                ),
            })
    }
}

impl GateBackend for MemoBackend {
    fn maj3(
        &self,
        _layout: &TriangleMaj3Layout,
        inputs: [Bit; 3],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        MemoBackend::lookup(&self.maj3, inputs)
    }

    fn xor(
        &self,
        _layout: &TriangleXorLayout,
        inputs: [Bit; 2],
    ) -> Result<(Complex64, Complex64), SwGateError> {
        MemoBackend::lookup(&self.xor, inputs)
    }
}

/// Builds the job specs for all `2^N` patterns of a gate.
fn pattern_specs<const N: usize>(prefix: &str) -> Vec<JobSpec<[Bit; N]>> {
    all_patterns::<N>()
        .into_iter()
        .map(|pattern| JobSpec {
            id: pattern_id(prefix, pattern),
            inputs: Json::obj([(
                "pattern",
                Json::str(pattern.iter().map(Bit::to_string).collect::<String>()),
            )]),
            payload: pattern,
        })
        .collect()
}

/// Turns batch outcomes into pattern outcomes.
fn pattern_outcomes<const N: usize>(
    specs: &[JobSpec<[Bit; N]>],
    outcomes: Vec<Outcome<GateRun>>,
) -> Vec<PatternOutcome<N>> {
    specs
        .iter()
        .zip(outcomes)
        .map(|(spec, outcome)| match outcome {
            Outcome::Fresh(run, _) => PatternOutcome {
                pattern: spec.payload,
                phasors: Some((run.o1, run.o2)),
                run: Some(run),
                resumed: false,
                error: None,
            },
            Outcome::Resumed(json) => PatternOutcome {
                pattern: spec.payload,
                phasors: phasors_from_json(&json),
                run: None,
                resumed: true,
                error: None,
            },
            Outcome::Failed(message) => PatternOutcome {
                pattern: spec.payload,
                phasors: None,
                run: None,
                resumed: false,
                error: Some(message),
            },
        })
        .collect()
}

/// Runs all 8 MAJ3 input patterns as a batch: prewarms the drive-trim
/// calibration once on `backend`, then fans the patterns out over
/// `options.jobs` workers on clones sharing that calibration.
///
/// # Errors
///
/// Returns [`RunError`] if the calibration fails or the manifest cannot
/// be used. Individual pattern failures are reported per pattern.
pub fn maj3_patterns(
    backend: &MumagBackend,
    layout: &TriangleMaj3Layout,
    options: &RunOptions,
) -> Result<PatternBatchReport<3>, RunError> {
    let batch = Batch::new("maj3-patterns", pattern_specs::<3>("maj3"));
    if batch.pending(options)? > 0 {
        backend
            .prewarm_maj3(layout)
            .map_err(|e| RunError::setup(&e))?;
    }
    let report = batch.run(options, |&pattern| {
        let run = backend
            .clone()
            .maj3_run(layout, pattern)
            .map_err(|e| e.to_string())?;
        let json = run_to_json(&run);
        Ok((run, json))
    })?;
    Ok(PatternBatchReport {
        patterns: pattern_outcomes(batch.specs(), report.outcomes),
        metrics: report.metrics,
    })
}

/// Runs all 4 XOR input patterns as a batch (see [`maj3_patterns`]).
///
/// # Errors
///
/// Returns [`RunError`] if the calibration fails or the manifest cannot
/// be used. Individual pattern failures are reported per pattern.
pub fn xor_patterns(
    backend: &MumagBackend,
    layout: &TriangleXorLayout,
    options: &RunOptions,
) -> Result<PatternBatchReport<2>, RunError> {
    let batch = Batch::new("xor-patterns", pattern_specs::<2>("xor"));
    if batch.pending(options)? > 0 {
        backend
            .prewarm_xor(layout)
            .map_err(|e| RunError::setup(&e))?;
    }
    let report = batch.run(options, |&pattern| {
        let run = backend
            .clone()
            .xor_run(layout, pattern)
            .map_err(|e| e.to_string())?;
        let json = run_to_json(&run);
        Ok((run, json))
    })?;
    Ok(PatternBatchReport {
        patterns: pattern_outcomes(batch.specs(), report.outcomes),
        metrics: report.metrics,
    })
}

/// A gate runner that maps whole pattern sweeps onto **lockstep batched**
/// LLG solves: instead of fanning `2^N` independent jobs over worker
/// threads, up to `batch_width` patterns advance together through one
/// K-wide interleaved solve (see [`MumagBackend::maj3_run_batch`]).
///
/// On a core-starved host this is the faster shape — one sweep amortizes
/// its bookkeeping over K magnetization lanes per cell instead of paying
/// it K times — while every pattern's phasors stay bitwise identical to
/// its independent run.
#[derive(Debug, Clone)]
pub struct BatchedBackend {
    backend: MumagBackend,
    batch_width: usize,
}

impl BatchedBackend {
    /// Wraps `backend`, advancing up to `batch_width` patterns per
    /// lockstep solve (0 is treated as 1; a width larger than the
    /// pattern count simply runs one full-sweep batch).
    pub fn new(backend: MumagBackend, batch_width: usize) -> Self {
        BatchedBackend {
            backend,
            batch_width: batch_width.max(1),
        }
    }

    /// The wrapped backend.
    pub fn backend(&self) -> &MumagBackend {
        &self.backend
    }

    /// The configured batch width K.
    pub fn batch_width(&self) -> usize {
        self.batch_width
    }

    /// Runs all 8 MAJ3 patterns in `ceil(8 / K)` lockstep batches.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the drive-trim calibration fails; pattern
    /// failures are reported per pattern in the report.
    pub fn maj3_patterns(
        &self,
        layout: &TriangleMaj3Layout,
    ) -> Result<PatternBatchReport<3>, RunError> {
        self.backend
            .prewarm_maj3(layout)
            .map_err(|e| RunError::setup(&e))?;
        self.run_batched(all_patterns::<3>(), |chunk| {
            self.backend.maj3_run_batch(layout, chunk)
        })
    }

    /// Runs all 4 XOR patterns in `ceil(4 / K)` lockstep batches.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the drive-trim calibration fails; pattern
    /// failures are reported per pattern in the report.
    pub fn xor_patterns(
        &self,
        layout: &TriangleXorLayout,
    ) -> Result<PatternBatchReport<2>, RunError> {
        self.backend
            .prewarm_xor(layout)
            .map_err(|e| RunError::setup(&e))?;
        self.run_batched(all_patterns::<2>(), |chunk| {
            self.backend.xor_run_batch(layout, chunk)
        })
    }

    /// Chunks `patterns` by the batch width, runs each chunk through one
    /// batched solve, and assembles the standard report shape.
    fn run_batched<const N: usize>(
        &self,
        patterns: Vec<[Bit; N]>,
        run_chunk: impl Fn(&[[Bit; N]]) -> Result<Vec<GateRun>, SwGateError>,
    ) -> Result<PatternBatchReport<N>, RunError> {
        let start = std::time::Instant::now();
        let mut outcomes = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks(self.batch_width) {
            match run_chunk(chunk) {
                Ok(runs) => {
                    for (&pattern, run) in chunk.iter().zip(runs) {
                        outcomes.push(PatternOutcome {
                            pattern,
                            phasors: Some((run.o1, run.o2)),
                            run: Some(run),
                            resumed: false,
                            error: None,
                        });
                    }
                }
                Err(e) => {
                    let message = e.to_string();
                    for &pattern in chunk {
                        outcomes.push(PatternOutcome {
                            pattern,
                            phasors: None,
                            run: None,
                            resumed: false,
                            error: Some(message.clone()),
                        });
                    }
                }
            }
        }
        let wall = start.elapsed();
        let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
        Ok(PatternBatchReport {
            metrics: BatchMetrics {
                total: outcomes.len(),
                done: outcomes.len() - failed,
                failed,
                resumed: 0,
                workers: 1,
                wall,
                cpu: wall,
            },
            patterns: outcomes,
        })
    }
}

/// One point of a parameter sweep: a label (used in job ids and
/// reports) and the backend variant to run it with.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Short label, e.g. `"T300K"` or `"rough2nm"`. Must be unique and
    /// stable across runs (it keys the manifest ids).
    pub label: String,
    /// The backend for this point (temperature, roughness, drive ...).
    pub backend: MumagBackend,
}

impl SweepPoint {
    /// A sweep point.
    pub fn new(label: impl Into<String>, backend: MumagBackend) -> SweepPoint {
        SweepPoint {
            label: label.into(),
            backend,
        }
    }
}

/// One sweep point's results.
#[derive(Debug)]
pub struct SweepPointReport<const N: usize> {
    /// The point's label.
    pub label: String,
    /// Its pattern outcomes.
    pub patterns: Vec<PatternOutcome<N>>,
}

impl SweepPointReport<2> {
    /// The point's results as a [`MemoBackend`] for truth-table decoding.
    pub fn memo(&self) -> MemoBackend {
        MemoBackend {
            maj3: HashMap::new(),
            xor: self
                .patterns
                .iter()
                .filter_map(|p| p.phasors.map(|ph| (p.pattern, ph)))
                .collect(),
        }
    }
}

/// The result of an XOR parameter sweep.
#[derive(Debug)]
pub struct SweepReport {
    /// One report per sweep point, in input order.
    pub points: Vec<SweepPointReport<2>>,
    /// Aggregate metrics over the whole flattened batch.
    pub metrics: BatchMetrics,
}

/// Runs the full XOR truth table at every sweep point as **one** batch:
/// all `points × 4` pattern jobs share the pool, so a 3-point sweep on 4
/// workers keeps them busy instead of parallelizing only within a point.
///
/// Calibration stays per point — each point's backend is prewarmed once
/// (serially) before the fan-out, because points may differ in geometry
/// (edge roughness) and must not share trims. Clones within a point do
/// share them.
///
/// # Errors
///
/// Returns [`RunError`] if a calibration fails or the manifest cannot be
/// used.
pub fn xor_sweep(
    points: &[SweepPoint],
    layout: &TriangleXorLayout,
    options: &RunOptions,
) -> Result<SweepReport, RunError> {
    let patterns = all_patterns::<2>();
    let specs: Vec<JobSpec<(usize, [Bit; 2])>> = points
        .iter()
        .enumerate()
        .flat_map(|(point_index, point)| {
            patterns.iter().map(move |&pattern| JobSpec {
                id: pattern_id(&format!("{}-xor", point.label), pattern),
                inputs: Json::obj([
                    ("point", Json::str(&point.label)),
                    (
                        "pattern",
                        Json::str(pattern.iter().map(Bit::to_string).collect::<String>()),
                    ),
                ]),
                payload: (point_index, pattern),
            })
        })
        .collect();
    let batch = Batch::new("xor-sweep", specs);

    // Prewarm each point that still has pending work.
    let completed = match (&options.manifest, options.resume) {
        (Some(path), true) => crate::manifest::Manifest::load(path)?.completed(),
        _ => Default::default(),
    };
    for point in points {
        let all_done = patterns
            .iter()
            .all(|&p| completed.contains_key(&pattern_id(&format!("{}-xor", point.label), p)));
        if !all_done {
            point
                .backend
                .prewarm_xor(layout)
                .map_err(|e| RunError::setup(&e))?;
        }
    }

    let report = batch.run(options, |&(point_index, pattern)| {
        let run = points[point_index]
            .backend
            .clone()
            .xor_run(layout, pattern)
            .map_err(|e| e.to_string())?;
        let json = run_to_json(&run);
        Ok((run, json))
    })?;

    // Split the flattened outcomes back per point.
    let per_point_specs: Vec<JobSpec<[Bit; 2]>> = batch
        .specs()
        .iter()
        .map(|s| JobSpec {
            id: s.id.clone(),
            inputs: s.inputs.clone(),
            payload: s.payload.1,
        })
        .collect();
    let all_outcomes = pattern_outcomes(&per_point_specs, report.outcomes);
    let mut chunks = all_outcomes.into_iter();
    let point_reports = points
        .iter()
        .map(|point| SweepPointReport {
            label: point.label.clone(),
            patterns: chunks.by_ref().take(patterns.len()).collect(),
        })
        .collect();
    Ok(SweepReport {
        points: point_reports,
        metrics: report.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_ids_are_stable_and_ordered_i1_first() {
        assert_eq!(
            pattern_id("maj3", [Bit::Zero, Bit::One, Bit::One]),
            "maj3-011"
        );
        assert_eq!(pattern_id("xor", [Bit::One, Bit::Zero]), "xor-10");
    }

    fn tiny_snapshot() -> magnum::probe::Snapshot {
        let mesh = magnum::mesh::Mesh::new(1, 1, [1e-9, 1e-9, 1e-9]).unwrap();
        magnum::probe::Snapshot::capture(
            &mesh,
            &vec![magnum::math::Vec3::Z; mesh.cell_count()],
            magnum::probe::Component::X,
        )
    }

    #[test]
    fn run_json_round_trips_phasors() {
        let run = GateRun {
            o1: Complex64::from_polar(1.5e-4, 0.75),
            o2: Complex64::from_polar(2.5e-4, -2.1),
            snapshot: tiny_snapshot(),
            frequency: 1.6e10,
            simulated_time: 3.2e-9,
        };
        let json = run_to_json(&run);
        let reparsed = Json::parse(&json.render()).unwrap();
        let (o1, o2) = phasors_from_json(&reparsed).unwrap();
        assert!((o1 - run.o1).abs() < 1e-18);
        assert!((o2 - run.o2).abs() < 1e-18);
        assert_eq!(
            reparsed.get("frequency").and_then(Json::as_f64),
            Some(1.6e10)
        );
    }

    #[test]
    fn phasors_from_incomplete_json_is_none() {
        let json = Json::obj([("o1_mag", Json::Num(1.0))]);
        assert!(phasors_from_json(&json).is_none());
    }

    #[test]
    fn memo_backend_answers_known_patterns_only() {
        let phasors = (Complex64::ONE, Complex64::ONE * 2.0);
        let report = PatternBatchReport::<2> {
            patterns: all_patterns::<2>()
                .into_iter()
                .map(|pattern| PatternOutcome {
                    pattern,
                    // One pattern "failed" — has no phasors.
                    phasors: (pattern != [Bit::One, Bit::One]).then_some(phasors),
                    run: None,
                    resumed: false,
                    error: (pattern == [Bit::One, Bit::One]).then(|| "boom".to_string()),
                })
                .collect(),
            metrics: BatchMetrics {
                total: 4,
                done: 3,
                failed: 1,
                resumed: 0,
                workers: 1,
                wall: std::time::Duration::from_millis(1),
                cpu: std::time::Duration::from_millis(1),
            },
        };
        assert_eq!(report.first_error(), Some("boom"));
        let memo = report.memo();
        let layout = TriangleXorLayout::paper();
        assert_eq!(memo.xor(&layout, [Bit::Zero, Bit::Zero]).unwrap(), phasors);
        assert!(memo.xor(&layout, [Bit::One, Bit::One]).is_err());
        // The MAJ3 side is empty.
        assert!(memo
            .maj3(&TriangleMaj3Layout::paper(), [Bit::Zero; 3])
            .is_err());
    }

    #[test]
    fn pattern_specs_enumerate_all_patterns() {
        let specs = pattern_specs::<3>("maj3");
        assert_eq!(specs.len(), 8);
        assert_eq!(specs[0].id, "maj3-000");
        assert_eq!(specs[5].id, "maj3-101");
        assert_eq!(
            specs[5].inputs.get("pattern").and_then(Json::as_str),
            Some("101")
        );
    }
}
