//! `table2_solo`: Table II the way `repro table2 --mumag --fast` runs it —
//! one swrun job at a time over a fresh manifest, `nproc` solver threads,
//! 2 calibration solves then the 4 XOR patterns (in seeded order).

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use swgates::encoding::{all_patterns, Bit};
use swgates::gates::XorGate;
use swgates::layout::TriangleXorLayout;
use swgates::mumag::MumagBackend;
use swjson::Json;
use swrun::batch::{Batch, JobSpec, Outcome, RunOptions};
use swrun::gates::{pattern_id, run_to_json, PatternBatchReport, PatternOutcome};

use crate::openloop::median;
use crate::procs;
use crate::rng::Rng;
use crate::trace::{attribute, Tracer};
use crate::{Ctx, Report};

/// Set-up probes per run; `setup_s` is their median. Each takes about
/// 2 ms, nearly all of it process start, so it takes many to be steady.
const SETUP_REPEATS: usize = 51;

/// The fast XOR layout `repro table2 --fast` uses.
pub fn xor_layout() -> TriangleXorLayout {
    TriangleXorLayout::new(55e-9, 50e-9, 110e-9, 40e-9).expect("fast XOR layout is valid")
}

/// The four phasor fields of a run record, as the reference stores them.
pub const PHASOR_FIELDS: [&str; 4] = ["o1_mag", "o1_phase", "o2_mag", "o2_phase"];

/// Whether a run record's phasors equal the reference's bit for bit.
pub fn phasors_match(pattern: &str, record: &Json) -> bool {
    let reference = crate::reference();
    let expected = reference
        .get("xor_solo_phasors")
        .and_then(|r| r.get(pattern));
    let got = Json::obj(PHASOR_FIELDS.iter().map(|f| {
        let bits = record.get(f).and_then(Json::as_f64).map(crate::bits_hex);
        (*f, Json::str(bits.unwrap_or_default()))
    }));
    let ok = expected.is_some_and(|e| {
        PHASOR_FIELDS
            .iter()
            .all(|f| e.get(f).is_some() && e.get(f) == got.get(f))
    });
    if !ok {
        eprintln!(
            "perfbench: xor {pattern} phasors {} differ from the reference",
            got.render()
        );
    }
    ok
}

pub fn pattern_string<const N: usize>(pattern: [Bit; N]) -> String {
    pattern.iter().map(Bit::to_string).collect()
}

/// The swrun batch of `patterns`, as `swrun::gates::xor_patterns` builds it.
fn xor_batch(patterns: &[[Bit; 2]]) -> Batch<[Bit; 2]> {
    let specs = patterns
        .iter()
        .map(|&p| JobSpec {
            id: pattern_id("xor", p),
            inputs: Json::obj([("pattern", Json::str(pattern_string(p)))]),
            payload: p,
        })
        .collect();
    Batch::new("xor-patterns", specs)
}

/// `repro table2`'s run options: one job at a time over a fresh manifest.
fn run_options(manifest: &Path) -> RunOptions {
    RunOptions::default()
        .with_jobs(1)
        .with_manifest(manifest)
        .fresh()
        .quiet()
}

/// Child side of the set-up probe: what the solo run does before its
/// first solve — backend, layout, job specs and the pending-job count.
/// That is little work, so the figure is mostly process start.
pub fn setup_probe(dir: &Path) -> Result<(), String> {
    let backend = MumagBackend::fast().with_threads(swrun::thread_budget(1));
    let layout = xor_layout();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let pending = xor_batch(&all_patterns::<2>())
        .pending(&run_options(&dir.join("table2.manifest.jsonl")))
        .map_err(|e| e.to_string())?;
    let _ = (backend, layout);
    println!("ready {pending}");
    Ok(())
}

/// Table II runs per run, each with a fresh backend (so it calibrates
/// again) and a fresh manifest. `work_s` is the fastest: the host's speed
/// swings for seconds at a time, and the fastest run is the one a swing
/// moves least.
const TABLE_REPEATS: usize = 2;

/// What one Table II run measured, in wall seconds.
struct Pass {
    total_s: f64,
    calibration_s: f64,
    solve_s: Vec<f64>,
    batch_wall_s: f64,
    manifest: PathBuf,
}

/// One Table II the way `repro table2 --mumag --fast` runs it; its
/// correctness checks go into `report`.
fn table_once(
    threads: usize,
    manifest: PathBuf,
    patterns: &[[Bit; 2]],
    tracer: &Tracer,
    report: &mut Report,
    rep: usize,
) -> Result<Pass, String> {
    let backend = MumagBackend::fast().with_threads(threads);
    let layout = xor_layout();
    let options = run_options(&manifest);
    let solve_s = Mutex::new(Vec::new());

    let started = Instant::now();
    tracer
        .span("swgates::mumag", None, |_| backend.prewarm_xor(&layout))
        .map_err(|e| format!("calibration: {e}"))?;
    let calibration_s = started.elapsed().as_secs_f64();
    let batch = xor_batch(patterns);
    let batch_started = Instant::now();
    let ran = tracer.span("swrun", None, |parent| {
        batch.run(&options, |&pattern| {
            let t = Instant::now();
            let run = tracer
                .span("swgates::mumag", parent, |_| {
                    backend.clone().xor_run(&layout, pattern)
                })
                .map_err(|e| e.to_string())?;
            solve_s
                .lock()
                .expect("poisoned")
                .push(t.elapsed().as_secs_f64());
            let json = run_to_json(&run);
            Ok((run, json))
        })
    });
    let batch_wall_s = batch_started.elapsed().as_secs_f64();
    let ran = ran.map_err(|e| e.to_string())?;
    let outcomes: Vec<PatternOutcome<2>> = batch
        .specs()
        .iter()
        .zip(&ran.outcomes)
        .map(|(spec, outcome)| match outcome {
            Outcome::Fresh(run, _) => PatternOutcome {
                pattern: spec.payload,
                phasors: Some((run.o1, run.o2)),
                run: Some(run.clone()),
                resumed: false,
                error: None,
            },
            other => PatternOutcome {
                pattern: spec.payload,
                phasors: None,
                run: None,
                resumed: other.is_resumed(),
                error: Some(
                    other
                        .error()
                        .unwrap_or("resumed from a fresh manifest")
                        .into(),
                ),
            },
        })
        .collect();
    let records: Vec<(String, Option<Json>)> = batch
        .specs()
        .iter()
        .zip(&ran.outcomes)
        .map(|(spec, o)| (pattern_string(spec.payload), o.outputs().cloned()))
        .collect();
    let table = tracer.span("swgates::gates", None, |_| {
        let memo = PatternBatchReport {
            patterns: outcomes,
            metrics: ran.metrics,
        }
        .memo();
        XorGate::new(layout).truth_table(&memo)
    });
    let total_s = started.elapsed().as_secs_f64();

    report.attempted += 6;
    report.check(
        format!("table2_solo.run{rep}.xor_decoded_both_outputs"),
        table
            .map(|t| t.verify(|p| Bit::xor(p[0], p[1])).is_ok())
            .unwrap_or(false),
    );
    for (pattern, record) in &records {
        let ok = record.as_ref().is_some_and(|r| phasors_match(pattern, r));
        report.check(
            format!("table2_solo.run{rep}.phasors_{pattern}_equal_reference"),
            ok,
        );
    }
    Ok(Pass {
        total_s,
        calibration_s,
        solve_s: solve_s.into_inner().expect("poisoned"),
        batch_wall_s,
        manifest,
    })
}

/// Runs Table II [`TABLE_REPEATS`] times; `work_s` and the per-layer
/// metrics come from the fastest run.
pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = procs::scratch_dir(&ctx.work, "solo").map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let (t, _, _) = procs::time_ready("solo-setup", &["--dir", &dir.to_string_lossy()])
            .map_err(|e| e.to_string())?;
        setups.push(t);
    }
    report.setup_s = median(&setups);

    let threads = swrun::thread_budget(1);
    report.threads = threads;
    let mut rng = Rng::new(ctx.seed);
    let t0 = tracer.now();
    let mut passes = Vec::new();
    for rep in 0..TABLE_REPEATS {
        let mut patterns = all_patterns::<2>();
        rng.shuffle(&mut patterns);
        let manifest = dir.join(format!("table2-{rep}.manifest.jsonl"));
        let pass = table_once(threads, manifest, &patterns, tracer, &mut report, rep)?;
        passes.push(pass);
    }
    let t1 = tracer.now();
    eprintln!(
        "perfbench: table2_solo Table II runs took {:?} s",
        passes.iter().map(|p| p.total_s).collect::<Vec<_>>()
    );
    let fastest = passes
        .iter()
        .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
        .expect("TABLE_REPEATS > 0");
    report.work_s = fastest.total_s;
    report.peak_rss_kib = procs::peak_rss_kib(std::process::id());

    if tracer.on() {
        let manifest_text = std::fs::read_to_string(&fastest.manifest).unwrap_or_default();
        let job_wall_s: f64 = manifest_text
            .lines()
            .filter_map(|l| Json::parse(l).ok())
            .filter(|j| j.get("record").and_then(Json::as_str) == Some("job"))
            .filter_map(|j| j.get("wall_ms").and_then(Json::as_f64))
            .sum::<f64>()
            / 1e3;
        let l = &mut report.layers;
        l.insert("mumag.calibration_s", fastest.calibration_s);
        l.insert("mumag.solo_solve_s", fastest.solve_s.iter().sum());
        l.insert("mumag.solves", fastest.solve_s.len() as f64);
        l.insert("swrun.overhead_s", fastest.batch_wall_s - job_wall_s);
        l.insert("swrun.manifest_bytes", manifest_text.len() as f64);
        report.shares = attribute(&tracer.spans(), t0, t1);
        report.attributed_s = t1 - t0;
    }
    Ok(report)
}
