//! End-to-end benchmark of the paper workload.
//!
//! ```text
//! perfbench --workload <table2_solo|tables_served|eval_mix|film_newell>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the workload runs once untraced and once traced, and
//! the line carries the per-layer metrics. See `perfbench/README.md`.

mod evalmix;
mod film;
mod http;
mod mix;
mod openloop;
mod procs;
mod rng;
mod served;
mod solo;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use swjson::Json;

use crate::trace::Tracer;

pub const WORKLOADS: [&str; 4] = ["table2_solo", "tables_served", "eval_mix", "film_newell"];

/// End-to-end metrics: name, unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("work_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: name, unit. A layer a workload does not run
/// through reports 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("mumag.calibration_s", "s"),
    ("mumag.solo_solve_s", "s"),
    ("mumag.solves", "count"),
    ("mumag.batch_solve_s", "s"),
    ("swrun.overhead_s", "s"),
    ("swrun.manifest_bytes", "bytes"),
    ("swserve.job_queue_s", "s"),
    ("swserve.job_wall_s", "s"),
    ("swserve.poll_ms", "ms"),
    ("swserve.resubmit_ms", "ms"),
    ("swserve.cache_ram", "count"),
    ("swserve.cache_disk", "count"),
    ("swserve.cache_miss", "count"),
    ("swserve.cache_coalesced", "count"),
    ("swserve.hit_ratio", "ratio"),
    ("swserve.shed", "count"),
    ("swserve.gate_eval_us", "us"),
    ("swnet.normalize_us", "us"),
    ("swnet.evaluate_us", "us"),
    ("swjson.parse_us", "us"),
    ("swjson.render_us", "us"),
    ("swrouter.relay_ms", "ms"),
    ("swrouter.shard_share", "ratio"),
    ("swrouter.failovers", "count"),
    ("swrouter.stale_retries", "count"),
    ("swstore.puts", "count"),
    ("swstore.put_bytes", "bytes"),
    ("swstore.put_us", "us"),
    ("magnum.demag_build_s", "s"),
    ("magnum.demag_eval_ms", "ms"),
    ("magnum.demag_bytes_per_eval", "bytes"),
    ("magnum.step_ms", "ms"),
    ("magnum.probe_us", "us"),
    ("magnum.speedup_vs_serial", "ratio"),
    ("loadgen.lag_ms", "ms"),
    ("eval.p50_ms_low", "ms"),
    ("eval.p90_ms_low", "ms"),
    ("eval.p99_ms_low", "ms"),
    ("eval.p50_ms_high", "ms"),
    ("eval.p99_ms_high", "ms"),
    ("eval.max_rate_rps", "req/s"),
    ("failed_ratio", "ratio"),
    ("residual_ratio", "ratio"),
    ("trace_overhead_ratio", "ratio"),
];

/// Cluster starts per run of the served workloads; `setup_s` is their
/// median. The solo and film workloads set their own counts.
pub const SETUP_REPEATS: usize = 15;

/// The largest `residual_ratio` the attribution of each workload is
/// expected to leave; see "Attribution" in `perfbench/README.md`.
fn residual_tolerance(workload: &str) -> f64 {
    match workload {
        "tables_served" => 0.05,
        "eval_mix" => 0.60,
        _ => 0.01,
    }
}

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch directory for this run (stores, manifests), removed at exit.
    pub work: PathBuf,
    /// `nproc`.
    pub cpus: usize,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub setup_s: f64,
    pub work_s: f64,
    pub peak_rss_kib: u64,
    /// Load-generator or solver threads the workload used.
    pub threads: usize,
    /// Per-layer metric values (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Wall-share of each layer over `attributed_s` (traced runs only).
    pub shares: BTreeMap<&'static str, f64>,
    /// The wall the shares attribute.
    pub attributed_s: f64,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("perfbench: check failed: {name}");
            self.failed += 1;
        }
        self.checks.push((name, ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The reference outputs the correctness gates compare against.
pub fn reference() -> Json {
    Json::parse(include_str!("../reference.json")).expect("reference.json parses")
}

/// The bit pattern of an f64 as the reference stores it.
pub fn bits_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

fn usage(message: &str) -> ! {
    eprintln!(
        "perfbench: {message}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    if let Some(role) = value("--role") {
        child_role(&role, &args, &value);
        return;
    }
    let workload = value("--workload").unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    let seed: u64 = value("--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage("--seed needs a non-negative integer"));
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds needs a positive number"));
    let traced = match value("--trace").as_deref() {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage("--trace takes 0 or 1"),
    };

    let steal_at_start = host_steal_s();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed,
        seconds,
        work: work.clone(),
        cpus,
    };
    let outcome = if traced {
        run(&workload, &ctx, &Tracer::new(false)).and_then(|plain| {
            let tracer = Tracer::new(true);
            run(&workload, &ctx, &tracer).map(|mut traced| {
                // A workload that records no spans (eval_mix, whose layer
                // shares are modelled) has no tracing overhead to measure:
                // its two passes would only differ by noise.
                let overhead = if tracer.spans().is_empty() {
                    0.0
                } else {
                    traced.work_s / plain.work_s - 1.0
                };
                traced.layers.insert("trace_overhead_ratio", overhead);
                traced.attempted += plain.attempted;
                traced.failed += plain.failed;
                traced.checks.extend(plain.checks);
                traced
            })
        })
    } else {
        run(&workload, &ctx, &Tracer::new(false))
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(report) => {
            let correct = report.correct();
            emit(
                &workload,
                &ctx,
                traced,
                &report,
                host_steal_s() - steal_at_start,
            );
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(workload: &str, ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let started = Instant::now();
    let report = match workload {
        "table2_solo" => solo::run(ctx, tracer),
        "tables_served" => served::run_tables(ctx, tracer),
        "eval_mix" => evalmix::run(ctx, tracer),
        "film_newell" => film::run(ctx, tracer),
        _ => unreachable!("validated above"),
    }?;
    eprintln!(
        "perfbench: {workload} {} run took {:.1} s",
        if tracer.on() { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    Ok(report)
}

/// CPU time the hypervisor gave to other guests (`steal` in /proc/stat),
/// summed over CPUs, in seconds; 0 where the kernel does not report it.
/// A run with much steal measured a busy host, not the program.
fn host_steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    // USER_HZ, which Linux fixes at 100 for /proc/stat.
    ticks / 100.0
}

/// Prints the environment record, then the result line (last).
fn emit(workload: &str, ctx: &Ctx, traced: bool, report: &Report, steal_s: f64) {
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    let mut layers = report.layers.clone();
    layers.insert("failed_ratio", failed_ratio);
    let covered: f64 = report.shares.values().sum();
    let largest = report
        .shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(name, _)| *name)
        .unwrap_or("none");
    let tolerance = residual_tolerance(workload);
    if traced && report.attributed_s > 0.0 {
        let residual = 1.0 - covered / report.attributed_s;
        if residual > tolerance {
            eprintln!(
                "perfbench: {workload} residual_ratio {residual:.3} exceeds its tolerance {tolerance}"
            );
        }
        layers.insert("residual_ratio", residual);
    }
    let residual = layers.get("residual_ratio").copied();
    let shares = Json::obj(report.shares.iter().map(|(k, v)| {
        (
            *k,
            Json::Num(v / report.attributed_s.max(f64::MIN_POSITIVE)),
        )
    }));
    let env = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(ctx.seed as f64)),
        ("cpus", Json::Num(ctx.cpus as f64)),
        ("threads", Json::Num(report.threads as f64)),
        ("commit", Json::str(source_id())),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("traced", Json::Bool(traced)),
        ("host_steal_s", Json::Num(steal_s)),
        (
            "checks",
            Json::Obj(
                report
                    .checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                    .collect(),
            ),
        ),
        ("failed_ratio", Json::Num(failed_ratio)),
        ("attributed_s", Json::Num(report.attributed_s)),
        ("layer_shares", shares),
        ("largest_layer", Json::str(largest)),
        ("residual_ratio", residual.map_or(Json::Null, Json::Num)),
        ("residual_tolerance", Json::Num(tolerance)),
        (
            "residual_within_tolerance",
            residual.map_or(Json::Null, |r| Json::Bool(r <= tolerance)),
        ),
        (
            "trace_overhead_ratio",
            layers
                .get("trace_overhead_ratio")
                .map_or(Json::Null, |v| Json::Num(*v)),
        ),
    ]);
    println!("{}", Json::obj([("env", env)]).render());

    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics: Vec<(&str, Json)> = if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, metric(layers.get(name).copied().unwrap_or(0.0), unit)))
            .collect()
    } else {
        let values = [
            report.setup_s,
            report.work_s,
            report.peak_rss_kib as f64 / 1024.0,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, metric(v, unit)))
            .collect()
    };
    // Rendered by hand: `attempted` and `failed` are integers.
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        report.correct(),
        report.attempted,
        report.failed,
        Json::obj(metrics).render()
    );
}

/// Identifies the code under test: the git commit when the checkout has
/// one, otherwise an FNV-1a digest of the workspace sources.
fn source_id() -> String {
    if let Ok(head) = std::fs::read_to_string(".git/HEAD") {
        let head = head.trim();
        match head.strip_prefix("ref: ") {
            Some(r) => {
                if let Ok(sha) = std::fs::read_to_string(Path::new(".git").join(r)) {
                    return sha.trim().to_string();
                }
            }
            None => return head.to_string(),
        }
    }
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, files);
                } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                    files.push(path);
                }
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in std::fs::read(&file).unwrap_or_default() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv1a:{hash:016x}")
}

/// Child processes: servers and set-up probes.
fn child_role(role: &str, args: &[String], value: &dyn Fn(&str) -> Option<String>) {
    procs::exit_with_parent();
    let dir = PathBuf::from(value("--dir").unwrap_or_else(|| ".".into()));
    let result = match role {
        "shard" => served::shard(&dir),
        "router" => {
            let backends = args
                .iter()
                .enumerate()
                .filter(|(_, a)| *a == "--backend")
                .filter_map(|(i, _)| args.get(i + 1).cloned())
                .collect();
            served::router(&dir, backends)
        }
        "solo-setup" => solo::setup_probe(&dir),
        "film-setup" => film::setup_probe(),
        "demag-build" => film::demag_build_probe(),
        other => Err(format!("unknown role `{other}`")),
    };
    if let Err(e) = result {
        println!("error: {e}");
        std::process::exit(1);
    }
    if matches!(role, "shard" | "router") {
        // The server drained after `POST /v1/admin/shutdown`.
        std::process::exit(0);
    }
    // Set-up probes stay alive until the parent has read their peak RSS
    // and closed stdin.
    loop {
        std::thread::park();
    }
}
