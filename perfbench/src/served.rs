//! `tables_served`: Tables I and II as a client gets them from a router in
//! front of 2 shards, as batched jobs. Also the shard and router child
//! roles that `eval_mix` shares.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use swgates::encoding::{all_patterns, Bit};
use swgates::gates::{Maj3Gate, XorGate};
use swgates::layout::TriangleMaj3Layout;
use swgates::mumag::MumagBackend;
use swjson::Json;
use swrun::gates::{phasors_from_json, run_to_json, PatternBatchReport, PatternOutcome};

use crate::http::Conn;
use crate::openloop::median;
use crate::procs;
use crate::rng::Rng;
use crate::solo::{pattern_string, phasors_match, xor_layout};
use crate::trace::{attribute, Tracer};
use crate::{Ctx, Report, SETUP_REPEATS};

/// Child role: one shard as `repro serve --workers 1 --store DIR` runs it.
pub fn shard(dir: &Path) -> Result<(), String> {
    let config = swserve::ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        manifest: Some(dir.join("manifest.jsonl")),
        store: Some(dir.join("store")),
        ..swserve::ServerConfig::default()
    };
    let server = swserve::Server::bind(&config).map_err(|e| e.to_string())?;
    publish_addr(dir, &server.local_addr().to_string())?;
    server.run().map_err(|e| e.to_string())
}

/// Child role: the router as `repro route --backend A --backend B` runs it.
pub fn router(dir: &Path, backends: Vec<String>) -> Result<(), String> {
    let config = swrouter::RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        ..swrouter::RouterConfig::default()
    };
    let router = swrouter::Router::bind(&config).map_err(|e| e.to_string())?;
    publish_addr(dir, &router.local_addr().to_string())?;
    router.run().map_err(|e| e.to_string())
}

fn publish_addr(dir: &Path, addr: &str) -> Result<(), String> {
    let tmp = dir.join("addr.tmp");
    std::fs::write(&tmp, addr).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, dir.join("addr")).map_err(|e| e.to_string())
}

fn maj3_layout() -> TriangleMaj3Layout {
    TriangleMaj3Layout::from_multiples(55e-9, 50e-9, 2, 3, 4, 1).expect("fast MAJ3 layout is valid")
}

fn parse(text: &str) -> Result<Json, String> {
    Json::parse(text).map_err(|e| format!("bad JSON from the server: {e}"))
}

/// One served job as the client saw it.
struct Job {
    kind: &'static str,
    body: &'static str,
    id: String,
    submitted: f64,
    done_seen: Option<f64>,
    result: Option<Json>,
    wall_s: f64,
}

/// Pattern outcomes decoded from a `batch: K` job result.
fn decode_patterns<const N: usize>(result: &Json) -> Vec<(String, PatternOutcome<N>, Json)> {
    let mut out = Vec::new();
    for p in result.get("patterns").and_then(Json::as_arr).unwrap_or(&[]) {
        let bits: Vec<Bit> = p
            .get("inputs")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|b| Bit::from_bool(b.as_f64() == Some(1.0)))
            .collect();
        let (Ok(pattern), Some(record)) = (<[Bit; N]>::try_from(bits), p.get("result")) else {
            continue;
        };
        out.push((
            pattern_string(pattern),
            PatternOutcome {
                pattern,
                phasors: phasors_from_json(record),
                run: None,
                resumed: true,
                error: None,
            },
            record.clone(),
        ));
    }
    out
}

fn memo<const N: usize>(outcomes: Vec<PatternOutcome<N>>) -> PatternBatchReport<N> {
    PatternBatchReport {
        patterns: outcomes,
        metrics: swrun::metrics::BatchMetrics {
            total: 0,
            done: 0,
            failed: 0,
            resumed: 0,
            workers: 0,
            wall: Duration::ZERO,
            cpu: Duration::ZERO,
        },
    }
}

/// Checks a decoded MAJ3 table's normalized outputs against the reference.
fn maj3_matches_reference(table: &swgates::truth::TruthTable<3>) -> bool {
    let reference = crate::reference();
    let tolerance = reference
        .get("maj3_tolerance")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let Some(expected) = reference.get("maj3_normalized") else {
        return false;
    };
    let mut ok = table.rows().len() == 8;
    for row in table.rows() {
        let key = pattern_string(row.inputs);
        let want: Vec<f64> = expected
            .get(&key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_f64)
            .collect();
        let got = [row.outputs.o1.normalized, row.outputs.o2.normalized];
        let row_ok = want.len() == 2
            && want
                .iter()
                .zip(got)
                .all(|(w, g)| (w - g).abs() <= tolerance);
        if !row_ok {
            eprintln!(
                "perfbench: maj3 {key} normalized {got:?} differs from the reference {want:?}"
            );
        }
        ok &= row_ok;
    }
    ok
}

const POLL: Duration = Duration::from_millis(20);

pub fn run_tables(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = procs::scratch_dir(&ctx.work, "tables").map_err(|e| e.to_string())?;
    let (cluster, setup) =
        procs::start_cluster_median(&dir, SETUP_REPEATS).map_err(|e| e.to_string())?;
    report.setup_s = setup;
    report.threads = 1;
    let mut jobs = vec![
        Job {
            kind: "maj3",
            body: r#"{"kind":"maj3","batch":8}"#,
            id: String::new(),
            submitted: 0.0,
            done_seen: None,
            result: None,
            wall_s: 0.0,
        },
        Job {
            kind: "xor",
            body: r#"{"kind":"xor","batch":4}"#,
            id: String::new(),
            submitted: 0.0,
            done_seen: None,
            result: None,
            wall_s: 0.0,
        },
    ];
    Rng::new(ctx.seed).shuffle(&mut jobs);
    let mut conn = Conn::new(&cluster.router);
    let mut poll_ms = Vec::new();
    let mut resubmit_ms = Vec::new();

    // One timed round trip, recorded as a client-side HTTP span.
    let call = |conn: &mut Conn, method: &str, path: &str, body: &str| {
        let t = Instant::now();
        let response = tracer.span("swserve::http", None, |_| conn.request(method, path, body));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        response.map(|r| (r, ms)).map_err(|e| e.to_string())
    };

    let started = Instant::now();
    let t0 = tracer.now();
    for job in &mut jobs {
        let (r, _) = call(&mut conn, "POST", "/v1/jobs", job.body)?;
        let doc = tracer.span("swjson", None, |_| parse(&r.text()))?;
        report.attempted += 1;
        if r.status != 202 || doc.get("resubmitted").and_then(Json::as_bool) != Some(false) {
            return Err(format!(
                "submit {} answered {}: {}",
                job.kind,
                r.status,
                r.text()
            ));
        }
        job.id = doc
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        job.submitted = tracer.now();
    }
    while jobs.iter().any(|j| j.done_seen.is_none()) {
        std::thread::sleep(POLL);
        for job in jobs.iter_mut().filter(|j| j.done_seen.is_none()) {
            let (r, ms) = call(&mut conn, "GET", &format!("/v1/jobs/{}", job.id), "")?;
            poll_ms.push(ms);
            report.attempted += 1;
            if r.status != 200 {
                report.failed += 1;
                continue;
            }
            let doc = tracer.span("swjson", None, |_| parse(&r.text()))?;
            match doc.get("status").and_then(Json::as_str) {
                Some("done") => {
                    job.done_seen = Some(tracer.now());
                    job.wall_s = doc.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
                    job.result = doc.get("result").cloned();
                    if job.result.is_none() {
                        return Err(format!("{} job failed: {}", job.kind, r.text()));
                    }
                }
                Some("queued" | "running") => {}
                other => return Err(format!("{} job in state {other:?}", job.kind)),
            }
        }
        if started.elapsed() > Duration::from_secs(150) {
            return Err("served tables did not finish within 150 s".into());
        }
    }

    let (maj3_ok, maj3_ref_ok, xor_ok, xor_bits_ok) = tracer.span("swgates::gates", None, |_| {
        let result = |kind: &str| {
            jobs.iter()
                .find(|j| j.kind == kind)
                .and_then(|j| j.result.clone())
        };
        let maj3 = decode_patterns::<3>(&result("maj3").unwrap_or(Json::Null));
        let xor = decode_patterns::<2>(&result("xor").unwrap_or(Json::Null));
        let maj3_table = Maj3Gate::new(maj3_layout())
            .truth_table(&memo(maj3.iter().map(|(_, o, _)| o.clone()).collect()).memo());
        let xor_table = XorGate::new(xor_layout())
            .truth_table(&memo(xor.iter().map(|(_, o, _)| o.clone()).collect()).memo());
        (
            maj3_table
                .as_ref()
                .map(|t| t.verify(|p| Bit::majority(p[0], p[1], p[2])).is_ok())
                .unwrap_or(false),
            maj3_table
                .as_ref()
                .map(maj3_matches_reference)
                .unwrap_or(false),
            xor_table
                .map(|t| t.verify(|p| Bit::xor(p[0], p[1])).is_ok())
                .unwrap_or(false),
            xor.len() == 4 && xor.iter().all(|(p, _, record)| phasors_match(p, record)),
        )
    });

    // Resubmissions must answer from the finished jobs without simulating.
    let mut resubmits_ok = true;
    for job in &jobs {
        let (r, ms) = call(&mut conn, "POST", "/v1/jobs", job.body)?;
        resubmit_ms.push(ms);
        report.attempted += 1;
        let doc = tracer.span("swjson", None, |_| parse(&r.text()))?;
        resubmits_ok &= r.status == 202
            && doc.get("resubmitted").and_then(Json::as_bool) == Some(true)
            && doc.get("status").and_then(Json::as_str) == Some("done")
            && doc.get("id").and_then(Json::as_str) == Some(job.id.as_str());
    }
    report.work_s = started.elapsed().as_secs_f64();
    let t1 = tracer.now();

    report.check("tables_served.maj3_decoded_both_outputs", maj3_ok);
    report.check("tables_served.maj3_normalized_equal_reference", maj3_ref_ok);
    report.check("tables_served.xor_decoded_both_outputs", xor_ok);
    report.check(
        "tables_served.xor_batch_phasors_equal_solo_bitwise",
        xor_bits_ok,
    );
    report.check(
        "tables_served.resubmits_answer_without_simulating",
        resubmits_ok,
    );
    report.peak_rss_kib = procs::peak_rss_kib(std::process::id()) + cluster.peak_rss_kib();
    cluster.stop();

    if tracer.on() {
        let replay = replay_batches(&mut report)?;
        let mut queue_s = 0.0;
        let mut wall_s = 0.0;
        for job in &jobs {
            let done = job.done_seen.expect("all jobs finished");
            let run_start = (done - job.wall_s).max(job.submitted);
            let (calib, solve) = replay[job.kind];
            let split = run_start + job.wall_s * calib / (calib + solve);
            queue_s += run_start - job.submitted;
            wall_s += job.wall_s;
            // Derived spans: the job's run, split between calibration and
            // the batched solve in the in-process replay's proportions. The
            // queue wait gets no span: while one job waits the other runs,
            // and the wall belongs to the running one.
            tracer.record("swgates::mumag", None, run_start, split);
            tracer.record("magnum::batch", None, split, done);
        }
        let l = &mut report.layers;
        l.insert("swserve.job_queue_s", queue_s);
        l.insert("swserve.job_wall_s", wall_s);
        l.insert("swserve.poll_ms", median(&poll_ms));
        l.insert("swserve.resubmit_ms", median(&resubmit_ms));
        report.shares = attribute(&tracer.spans(), t0, t1);
        report.attributed_s = t1 - t0;
    }
    Ok(report)
}

/// Re-runs both served sweeps in-process, one thread each as on the two
/// shards, timing calibration and the batched solve separately. Returns
/// `(calibration_s, batch_solve_s)` per kind.
fn replay_batches(report: &mut Report) -> Result<HashMap<&'static str, (f64, f64)>, String> {
    let timed = |f: &mut dyn FnMut() -> Result<(), String>| {
        let t = Instant::now();
        f().map(|_| t.elapsed().as_secs_f64())
    };
    let replayed = Mutex::new(None);
    let (maj3, xor) = std::thread::scope(|scope| {
        let maj3 = scope.spawn(|| -> Result<(f64, f64), String> {
            let backend = MumagBackend::fast();
            let layout = maj3_layout();
            let calib = timed(&mut || backend.prewarm_maj3(&layout).map_err(|e| e.to_string()))?;
            let solve = timed(&mut || {
                backend
                    .maj3_run_batch(&layout, &all_patterns::<3>())
                    .map(|_| ())
                    .map_err(|e| e.to_string())
            })?;
            Ok((calib, solve))
        });
        let xor = scope.spawn(|| -> Result<(f64, f64), String> {
            let backend = MumagBackend::fast();
            let layout = xor_layout();
            let calib = timed(&mut || backend.prewarm_xor(&layout).map_err(|e| e.to_string()))?;
            let patterns = all_patterns::<2>();
            let t = Instant::now();
            let runs = backend
                .xor_run_batch(&layout, &patterns)
                .map_err(|e| e.to_string())?;
            let solve = t.elapsed().as_secs_f64();
            *replayed.lock().expect("poisoned") = Some(
                patterns
                    .iter()
                    .zip(&runs)
                    .all(|(&p, run)| phasors_match(&pattern_string(p), &run_to_json(run))),
            );
            Ok((calib, solve))
        });
        (maj3.join(), xor.join())
    });
    let maj3 = maj3.map_err(|_| "maj3 replay panicked".to_string())??;
    let xor = xor.map_err(|_| "xor replay panicked".to_string())??;
    report.check(
        "tables_served.replayed_xor_batch_equal_solo_bitwise",
        replayed.into_inner().expect("poisoned") == Some(true),
    );
    let l = &mut report.layers;
    l.insert("mumag.calibration_s", maj3.0 + xor.0);
    l.insert("mumag.batch_solve_s", maj3.1 + xor.1);
    Ok(HashMap::from([("maj3", maj3), ("xor", xor)]))
}
