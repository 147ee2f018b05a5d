//! `eval_mix`: open-loop inline traffic through a router in front of 2
//! shards — hot `gate/eval` keys, hot netlist tables and cold tables that
//! are new for every seed.
//!
//! Every run sends at the fixed `low` rate for `--seconds`, split into
//! [`ROUNDS`] slices; each slice is followed by a closed-loop fill of
//! fresh cold tables, and `work_s` is the median fill. A traced run then
//! also sends at the fixed `high` rate and climbs the rate ladder, and
//! attributes the `low` slices' latency to the layers. The rates and the
//! mix are chosen values, not observed traffic; `perfbench/README.md`
//! says why each was picked.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use swjson::Json;

use crate::http::Conn;
use crate::mix::{self, Class, Req};
use crate::openloop::{self, median, percentile, Rung, Sample};
use crate::procs::{self, Cluster};
use crate::trace::Tracer;
use crate::{Ctx, Report, SETUP_REPEATS};

pub const LOW_RPS: f64 = 300.0;
pub const HIGH_RPS: f64 = 1000.0;
pub const LADDER_RPS: [f64; 8] = [
    1300.0, 1550.0, 1800.0, 2050.0, 2350.0, 2650.0, 3000.0, 3400.0,
];
/// Slices of the `low` phase, each followed by one cold fill. `work_s`
/// and the traced `eval.p50_ms_low`/`eval.p90_ms_low` are medians over
/// them, so a slow spell of the machine moves one slice, not the result;
/// many short slices spread the fills over the whole run.
pub const ROUNDS: usize = 15;
/// The latency limit on p99 a ladder rung must meet.
pub const LIMIT_MS: f64 = 50.0;
/// Cold tables in each closed-loop fill that `work_s` times.
pub const COLD_FILL: usize = 300;
/// Requests of the router-vs-direct sample (traced runs).
const RELAY_SAMPLE: usize = 200;

/// One answered request: status, `x-cache`, `x-shard` and body.
struct Answer {
    status: u16,
    cache: String,
    shard: Option<usize>,
    body: Vec<u8>,
}

fn send(conn: &mut Conn, req: &Req) -> Answer {
    match conn.post(req.path(), &req.body) {
        Ok(r) => Answer {
            status: r.status,
            cache: r.header("x-cache").unwrap_or("").to_string(),
            shard: r.header("x-shard").and_then(|s| s.parse().ok()),
            body: r.body,
        },
        Err(_) => Answer {
            status: 0,
            cache: String::new(),
            shard: None,
            body: Vec::new(),
        },
    }
}

/// The in-process answer a served body must equal byte for byte. The
/// HTTP layer ends bodies with a newline, as the CLI's `println!` does.
fn expected(req: &Req) -> Result<String, String> {
    let parsed = Json::parse(&req.body).map_err(|e| e.to_string())?;
    match req.class {
        Class::HotGate => swserve::respond(&parsed),
        Class::HotTable | Class::Cold => swserve::netlist::respond(&parsed),
    }
    .map(|body| body + "\n")
    .map_err(|e| e.message)
}

/// Sends `schedule` open-loop over `connections` fresh connections to
/// `addr`, answering from `stream[base..]`.
fn phase(
    addr: &str,
    connections: usize,
    schedule: &[f64],
    base: usize,
    stream: &[Req],
    answers: &Mutex<Vec<Option<Answer>>>,
) -> Vec<Sample> {
    let conns = (0..connections).map(|_| Conn::new(addr)).collect();
    openloop::run(Instant::now(), schedule, base, conns, |conn, i| {
        let answer = send(conn, &stream[i]);
        let ok = answer.status == 200;
        answers.lock().expect("poisoned")[i] = Some(answer);
        ok
    })
}

/// Summed handler time (µs) and request count, keyed by "is a table
/// request".
type Totals = HashMap<bool, (f64, f64)>;

/// The shards' summed handler totals of their gate and netlist endpoints.
fn handler_totals(cluster: &Cluster) -> Result<Totals, String> {
    let mut totals = HashMap::new();
    for shard in &cluster.shards {
        let m = Cluster::metrics(shard).map_err(|e| e.to_string())?;
        for (table, endpoint) in [(false, "gate_eval"), (true, "netlist_eval")] {
            let e = m
                .get("endpoints")
                .and_then(|e| e.get(endpoint))
                .and_then(|e| e.get("latency"));
            let count = e
                .and_then(|e| e.get("count"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let mean = e
                .and_then(|e| e.get("mean_us"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            let t = totals.entry(table).or_insert((0.0, 0.0));
            t.0 += count * mean;
            t.1 += count;
        }
    }
    Ok(totals)
}

/// Adds what the handlers did between two snapshots to `into`.
fn add_delta(into: &mut Totals, before: &Totals, after: &Totals) {
    for (&k, &(sum, n)) in after {
        let (sum0, n0) = before.get(&k).copied().unwrap_or((0.0, 0.0));
        let t = into.entry(k).or_insert((0.0, 0.0));
        t.0 += sum - sum0;
        t.1 += n - n0;
    }
}

/// Mean handler time (s) per request class.
fn handler_means(totals: &Totals) -> HashMap<bool, f64> {
    totals
        .iter()
        .map(|(&k, &(sum, n))| (k, if n > 0.0 { sum / n / 1e6 } else { 0.0 }))
        .collect()
}

/// Sends `fill` closed-loop over `connections` connections to `addr`;
/// returns the wall it took and every answer with its index.
fn cold_fill(addr: &str, connections: usize, fill: &[Req]) -> (f64, Vec<(usize, Answer)>) {
    let next = AtomicUsize::new(0);
    let filled: Mutex<Vec<(usize, Answer)>> = Mutex::new(Vec::with_capacity(fill.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| {
                let mut conn = Conn::new(addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = fill.get(i) else { break };
                    let answer = send(&mut conn, req);
                    filled.lock().expect("poisoned").push((i, answer));
                }
            });
        }
    });
    (
        started.elapsed().as_secs_f64(),
        filled.into_inner().expect("poisoned"),
    )
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = procs::scratch_dir(&ctx.work, "mix").map_err(|e| e.to_string())?;
    let (cluster, setup) =
        procs::start_cluster_median(&dir, SETUP_REPEATS).map_err(|e| e.to_string())?;
    report.setup_s = setup;
    let connections = ctx.cpus.max(1);
    report.threads = connections;

    // Open-loop phases in send order: (rate, seconds). The first ROUNDS
    // are the `low` slices; a traced run adds `high` and the ladder.
    let mut phases = vec![(LOW_RPS, ctx.seconds / ROUNDS as f64); ROUNDS];
    if tracer.on() {
        phases.push((HIGH_RPS, ctx.seconds / 3.0));
        let rung_s = ctx.seconds / 3.0 / LADDER_RPS.len() as f64;
        phases.extend(LADDER_RPS.iter().map(|&r| (r, rung_s)));
    }
    let schedules: Vec<Vec<f64>> = phases
        .iter()
        .map(|&(r, s)| openloop::schedule(r, s))
        .collect();
    let total: usize = schedules.iter().map(Vec::len).sum();
    let stream = mix::stream(ctx.seed, total);
    let fill = mix::cold_fill(ctx.seed, ROUNDS * COLD_FILL);
    let hot = mix::hot_set();

    // Warm the hot set so the timed phases see RAM hits for it.
    let mut warm = Conn::new(&cluster.router);
    for req in &hot {
        if send(&mut warm, req).status != 200 {
            return Err(format!("warm-up request failed: {}", req.body));
        }
    }

    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new((0..total).map(|_| None).collect());
    let mut samples = Vec::with_capacity(phases.len());
    // Handler totals of the `low` slices only (traced runs): the fills
    // between them are all misses and would skew the table mean.
    let mut loaded = Totals::new();
    let mut fill_s = Vec::with_capacity(ROUNDS);
    let mut filled = Vec::with_capacity(fill.len());
    let mut base = 0;
    for (k, schedule) in schedules.iter().enumerate() {
        let before = if tracer.on() && k < ROUNDS {
            Some(handler_totals(&cluster)?)
        } else {
            None
        };
        samples.push(phase(
            &cluster.router,
            connections,
            schedule,
            base,
            &stream,
            &answers,
        ));
        base += schedule.len();
        if let Some(before) = before {
            add_delta(&mut loaded, &before, &handler_totals(&cluster)?);
        }
        if k < ROUNDS {
            let chunk = &fill[k * COLD_FILL..(k + 1) * COLD_FILL];
            let (wall, answered) = cold_fill(&cluster.router, connections, chunk);
            fill_s.push(wall);
            filled.extend(answered.into_iter().map(|(i, a)| (k * COLD_FILL + i, a)));
        }
    }
    report.work_s = median(&fill_s);

    // Verify every timed answer against the in-process path.
    let answers: Vec<Answer> = answers
        .into_inner()
        .expect("poisoned")
        .into_iter()
        .map(|a| a.expect("every request answered"))
        .collect();
    let mut want: HashMap<&str, String> = HashMap::new();
    let mut wrong = 0u64;
    let mut shed = 0u64;
    let mut cache: BTreeMap<String, u64> = BTreeMap::new();
    for (req, answer) in stream.iter().zip(&answers) {
        if answer.status == 429 {
            shed += 1;
        }
        *cache.entry(answer.cache.clone()).or_insert(0) += 1;
        if !want.contains_key(req.body.as_str()) {
            want.insert(&req.body, expected(req)?);
        }
        if answer.status != 200 || want[req.body.as_str()].as_bytes() != &answer.body[..] {
            wrong += 1;
        }
    }
    let mut fill_failed = 0u64;
    for (i, answer) in filled {
        let good = answer.status == 200
            && expected(&fill[i]).is_ok_and(|want| want.as_bytes() == &answer.body[..]);
        fill_failed += u64::from(!good);
    }
    report.attempted = (total + fill.len()) as u64;
    report.failed = wrong + fill_failed;
    report.check(
        "eval_mix.responses_byte_identical_to_in_process",
        wrong == 0,
    );
    report.check(
        "eval_mix.cold_fill_byte_identical_to_in_process",
        fill_failed == 0,
    );
    report.check("eval_mix.no_request_shed", shed == 0);

    // One rung for the `low` slices together, then one per later phase.
    // The slices come first in the stream, so a low sample's position is
    // its request's index.
    let low: Vec<Sample> = samples[..ROUNDS].concat();
    let rates = phases[ROUNDS - 1..].iter().map(|&(rate, _)| rate);
    let by_rung: Vec<&[Sample]> = std::iter::once(&low[..])
        .chain(samples[ROUNDS..].iter().map(Vec::as_slice))
        .collect();
    let rungs: Vec<Rung> = rates
        .zip(&by_rung)
        .map(|(rate, s)| openloop::summarize(rate, s))
        .collect();
    eprintln!(
        "perfbench: eval_mix cold fills {:?} s",
        fill_s
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    for (r, s) in rungs.iter().zip(&by_rung) {
        let latency: Vec<f64> = s.iter().map(Sample::latency_ms).collect();
        eprintln!(
            "perfbench: eval_mix {:>6.0} req/s  p50 {:>7.3} ms  p90 {:>7.3} ms  p99 {:>7.3} ms  \
             lag p99 {:>7.3} ms{}",
            r.rate,
            r.p50_ms,
            percentile(&latency, 0.9),
            r.p99_ms,
            r.lag_p99_ms,
            if r.growing() { "  backlog growing" } else { "" }
        );
    }
    report.peak_rss_kib = procs::peak_rss_kib(std::process::id()) + cluster.peak_rss_kib();

    if tracer.on() {
        let idle_before = handler_totals(&cluster)?;
        let relay = relay_sample(&cluster, &hot)?;
        let mut idle = Totals::new();
        add_delta(&mut idle, &idle_before, &handler_totals(&cluster)?);
        let router = Cluster::metrics(&cluster.router).map_err(|e| e.to_string())?;
        let mut puts = 0.0;
        for shard in &cluster.shards {
            let m = Cluster::metrics(shard).map_err(|e| e.to_string())?;
            puts += m
                .get("store")
                .and_then(|s| s.get("puts"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
        }
        cluster.stop();
        let costs = layer_costs(&stream, &answers, &dir, &mut report)?;
        let handlers = Handlers {
            loaded: handler_means(&loaded),
            idle: handler_means(&idle),
        };
        attribute_requests(
            &low,
            &stream,
            &answers,
            &costs,
            &relay,
            &handlers,
            &mut report,
        );
        let count = |k: &str| cache.get(k).copied().unwrap_or(0) as f64;
        let backends = router.get("backends").and_then(Json::as_arr).unwrap_or(&[]);
        let per_backend = |field: &str| -> Vec<f64> {
            backends
                .iter()
                .map(|b| b.get(field).and_then(Json::as_f64).unwrap_or(0.0))
                .collect()
        };
        let forwarded = per_backend("forwarded");
        let high = rungs[1];
        let max_rate = openloop::max_rate(&rungs[2..], LIMIT_MS);
        let l = &mut report.layers;
        l.insert("swserve.cache_ram", count("ram"));
        l.insert("swserve.cache_disk", count("disk"));
        l.insert("swserve.cache_miss", count("miss"));
        l.insert("swserve.cache_coalesced", count("coalesced"));
        l.insert(
            "swserve.hit_ratio",
            (count("ram") + count("disk")) / total as f64,
        );
        l.insert("swserve.shed", shed as f64);
        l.insert("swrouter.relay_ms", relay.relay_ms);
        l.insert(
            "swrouter.shard_share",
            forwarded.iter().copied().fold(0.0, f64::max) / forwarded.iter().sum::<f64>().max(1.0),
        );
        l.insert(
            "swrouter.failovers",
            router
                .get("failovers")
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
        l.insert(
            "swrouter.stale_retries",
            per_backend("stale_retries").iter().sum(),
        );
        l.insert("swstore.puts", puts);
        l.insert("loadgen.lag_ms", high.lag_p99_ms);
        for (name, p) in [("eval.p50_ms_low", 0.5), ("eval.p90_ms_low", 0.9)] {
            l.insert(name, openloop::sliced_percentile(&samples[..ROUNDS], p));
        }
        l.insert("eval.p99_ms_low", rungs[0].p99_ms);
        l.insert("eval.p50_ms_high", high.p50_ms);
        l.insert("eval.p99_ms_high", high.p99_ms);
        // 0 when even the lowest rung missed the limit.
        l.insert("eval.max_rate_rps", max_rate.unwrap_or(0.0));
    } else {
        cluster.stop();
    }
    Ok(report)
}

/// Idle round trips of the hot set, through the router and straight to
/// the shard that owns each key: medians in seconds, keyed by "is a table
/// request".
struct Relay {
    routed: HashMap<bool, f64>,
    direct: HashMap<bool, f64>,
    /// Median router-minus-direct difference over the whole sample, ms.
    relay_ms: f64,
}

fn relay_sample(cluster: &Cluster, hot: &[Req]) -> Result<Relay, String> {
    let mut via_router = Conn::new(&cluster.router);
    let mut direct: Vec<Conn> = cluster.shards.iter().map(|s| Conn::new(s)).collect();
    let mut routed: HashMap<bool, Vec<f64>> = HashMap::new();
    let mut straight: HashMap<bool, Vec<f64>> = HashMap::new();
    for i in 0..RELAY_SAMPLE {
        let req = &hot[i % hot.len()];
        let table = req.class != Class::HotGate;
        let t = Instant::now();
        let a = send(&mut via_router, req);
        routed
            .entry(table)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        let shard = a.shard.ok_or("router answer without x-shard")?;
        let t = Instant::now();
        let b = send(&mut direct[shard], req);
        straight
            .entry(table)
            .or_default()
            .push(t.elapsed().as_secs_f64());
        if a.body != b.body {
            return Err("router and shard answers differ".into());
        }
    }
    let all = |m: &HashMap<bool, Vec<f64>>| m.values().flatten().copied().collect::<Vec<f64>>();
    let relay_ms = (median(&all(&routed)) - median(&all(&straight))) * 1e3;
    let medians =
        |m: HashMap<bool, Vec<f64>>| m.into_iter().map(|(k, v)| (k, median(&v))).collect();
    Ok(Relay {
        routed: medians(routed),
        direct: medians(straight),
        relay_ms,
    })
}

/// Mean shard handler time (s) per request class: under the `low`
/// slices' load, and idle (during the relay sample).
struct Handlers {
    loaded: HashMap<bool, f64>,
    idle: HashMap<bool, f64>,
}

/// Measured unit costs (seconds) the request attribution uses.
struct Costs {
    parse: f64,
    render: f64,
    gate: f64,
    normalize: f64,
    evaluate: f64,
    put: f64,
}

/// Times each layer's public entry points on the workload's own bodies.
fn layer_costs(
    stream: &[Req],
    answers: &[Answer],
    work: &Path,
    report: &mut Report,
) -> Result<Costs, String> {
    let sample: Vec<(&Req, &Answer)> = stream.iter().zip(answers).take(2000).collect();
    let us = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let (mut parse, mut render, mut gate, mut normalize, mut evaluate) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (req, _) in &sample {
        let mut body = Json::Null;
        parse.push(us(&mut || {
            body = Json::parse(&req.body).unwrap_or(Json::Null)
        }));
        let mut normalized = None;
        match req.class {
            Class::HotGate => {
                normalized = swserve::normalize(&body).ok();
                gate.push(us(&mut || {
                    std::hint::black_box(swserve::respond(&body).ok());
                }));
            }
            Class::HotTable | Class::Cold => {
                normalize.push(us(&mut || {
                    normalized = swserve::netlist::normalize(&body).ok()
                }));
            }
        }
        let n = normalized.ok_or("a generated request failed to normalize")?;
        // The canonical rendering is the cache key, computed on every request.
        render.push(us(&mut || {
            std::hint::black_box(n.render());
        }));
        if req.class == Class::Cold {
            evaluate.push(us(&mut || {
                std::hint::black_box(swserve::netlist::evaluate(&n).ok());
            }));
        }
    }
    let store_dir = work.join("put-store");
    let store =
        swstore::Store::open(swstore::StoreConfig::new(&store_dir)).map_err(|e| e.to_string())?;
    let mut put = Vec::new();
    let mut put_bytes = 0usize;
    for (i, (req, answer)) in sample.iter().enumerate() {
        if req.class == Class::Cold {
            put.push(us(&mut || {
                store
                    .put(i as u64, &answer.body)
                    .expect("temporary store put");
            }));
            put_bytes += answer.body.len();
        }
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&store_dir);
    let costs = Costs {
        parse: median(&parse) / 1e6,
        render: median(&render) / 1e6,
        gate: median(&gate) / 1e6,
        normalize: median(&normalize) / 1e6,
        evaluate: median(&evaluate) / 1e6,
        put: median(&put) / 1e6,
    };
    let l = &mut report.layers;
    l.insert("swjson.parse_us", costs.parse * 1e6);
    l.insert("swjson.render_us", costs.render * 1e6);
    l.insert("swserve.gate_eval_us", costs.gate * 1e6);
    l.insert("swnet.normalize_us", costs.normalize * 1e6);
    l.insert("swnet.evaluate_us", costs.evaluate * 1e6);
    l.insert("swstore.put_us", costs.put * 1e6);
    l.insert(
        "swstore.put_bytes",
        put_bytes as f64 / put.len().max(1) as f64,
    );
    Ok(costs)
}

/// Attributes the summed latency of the `low` slices; `requests[i]` is
/// the sample of `stream[i]`. Each request is charged, in order:
/// - its wait before sending (the load generator);
/// - the shard's handler time, as its `/metrics` measured it under this
///   load for the request's class: the layers' unit costs as the request
///   incurs them (parse and canonical render, normalize for a table, and
///   for a miss evaluate and write through), the rest to `swserve`
///   (cache, admission, waiting for a core inside the handler);
/// - the router's own parse, render and normalize, and its relay
///   overhead from the idle router-vs-direct sample;
/// - the shard's framing and loopback transport: the idle direct round
///   trip minus the idle handler time.
///
/// What is left — waiting for a core outside the handlers, on either
/// hop — is the residual.
fn attribute_requests(
    requests: &[Sample],
    stream: &[Req],
    answers: &[Answer],
    c: &Costs,
    relay: &Relay,
    handlers: &Handlers,
    report: &mut Report,
) {
    let mut shares: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut total = 0.0;
    for (i, s) in requests.iter().enumerate() {
        let req = &stream[i];
        let latency = s.done - s.due;
        total += latency;
        let miss = answers[i].cache == "miss";
        let table = req.class != Class::HotGate;
        let normalize = if table { c.normalize } else { 0.0 };
        let get = |m: &HashMap<bool, f64>| m.get(&table).copied().unwrap_or(0.0);
        let compute = [
            ("swjson", c.parse + c.render),
            (
                "swnet",
                normalize + if table && miss { c.evaluate } else { 0.0 },
            ),
            ("swserve::eval", if !table && miss { c.gate } else { 0.0 }),
            ("swstore", if table && miss { c.put } else { 0.0 }),
        ];
        let handler_rest = get(&handlers.loaded) - compute.iter().map(|(_, t)| t).sum::<f64>();
        let router_compute = c.parse + c.render + normalize;
        let parts = compute.into_iter().chain([
            ("swserve", handler_rest),
            ("loadgen", s.sent - s.due),
            ("swjson", c.parse + c.render),
            ("swnet", normalize),
            (
                "swrouter",
                get(&relay.routed) - get(&relay.direct) - router_compute,
            ),
            ("swserve::http", get(&relay.direct) - get(&handlers.idle)),
        ]);
        // Never attribute more than the request actually took.
        let mut left = latency;
        for (layer, t) in parts {
            let t = t.min(left).max(0.0);
            left -= t;
            *shares.entry(layer).or_insert(0.0) += t;
        }
    }
    report.shares = shares;
    report.attributed_s = total;
}
