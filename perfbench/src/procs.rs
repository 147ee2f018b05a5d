//! Child processes: the router + 2 shards the served workloads talk to,
//! and the set-up probes that time how long a fresh process takes to
//! become ready. Children are this same executable started with
//! `--role`; each exits when its stdin closes, so none outlives the
//! benchmark.

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use swjson::Json;

use crate::http::Conn;

pub const SHARDS: usize = 2;

fn spawn(args: &[&str]) -> io::Result<Child> {
    Command::new(std::env::current_exe()?)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
}

/// Blocks until stdin closes, then exits: the child side of the
/// lifetime tie.
pub fn exit_with_parent() {
    std::thread::spawn(|| {
        let _ = io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn wait_for_file(path: &Path, deadline: Instant) -> io::Result<String> {
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if !text.is_empty() {
                return Ok(text);
            }
        }
        if Instant::now() > deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} never appeared", path.display()),
            ));
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

fn finish(child: &mut Child, grace: Duration) {
    drop(child.stdin.take());
    let deadline = Instant::now() + grace;
    while Instant::now() < deadline {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// A router in front of [`SHARDS`] shards, each with one job worker and
/// an empty disk store.
pub struct Cluster {
    pub router: String,
    pub shards: Vec<String>,
    children: Vec<Child>,
}

impl Cluster {
    /// Starts the processes and returns once the router's `/healthz`
    /// reports every shard healthy; the second value is that set-up time.
    pub fn start(dir: &Path) -> io::Result<(Cluster, f64)> {
        let started = Instant::now();
        let deadline = started + Duration::from_secs(60);
        let mut cluster = Cluster {
            router: String::new(),
            shards: Vec::new(),
            children: Vec::new(),
        };
        let mut dirs = Vec::new();
        for i in 0..SHARDS {
            let d = dir.join(format!("shard{i}"));
            std::fs::create_dir_all(&d)?;
            cluster
                .children
                .push(spawn(&["--role", "shard", "--dir", &d.to_string_lossy()])?);
            dirs.push(d);
        }
        for d in &dirs {
            cluster
                .shards
                .push(wait_for_file(&d.join("addr"), deadline)?);
        }
        let rdir = dir.join("router");
        std::fs::create_dir_all(&rdir)?;
        let mut args = vec!["--role".to_string(), "router".into(), "--dir".into()];
        args.push(rdir.to_string_lossy().into_owned());
        for s in &cluster.shards {
            args.push("--backend".into());
            args.push(s.clone());
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        cluster.children.push(spawn(&args)?);
        cluster.router = wait_for_file(&rdir.join("addr"), deadline)?;
        let mut conn = Conn::new(&cluster.router);
        loop {
            let healthy = conn
                .get("/healthz")
                .ok()
                .filter(|r| r.status == 200)
                .and_then(|r| Json::parse(&r.text()).ok())
                .and_then(|j| j.get("healthy").and_then(Json::as_f64));
            if healthy == Some(SHARDS as f64) {
                break;
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "router never healthy",
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Ok((cluster, started.elapsed().as_secs_f64()))
    }

    /// Summed peak RSS of the router and shards, in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        self.children.iter().map(|c| peak_rss_kib(c.id())).sum()
    }

    pub fn metrics(addr: &str) -> io::Result<Json> {
        let text = Conn::new(addr).get("/metrics")?.text();
        Json::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Graceful drain of every process (router first), then reaping.
    pub fn stop(mut self) {
        let mut addrs = vec![self.router.clone()];
        addrs.extend(self.shards.iter().cloned());
        for addr in addrs {
            let _ = Conn::new(&addr).post("/v1/admin/shutdown", "");
        }
        for child in &mut self.children {
            finish(child, Duration::from_secs(10));
        }
        self.children.clear();
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `--role <role>` with `args`, and times it from spawn until it
/// prints `ready [payload]`; returns that time, the child's peak RSS in
/// KiB and the payload. The child then exits when its stdin closes.
pub fn time_ready(role: &str, args: &[&str]) -> io::Result<(f64, u64, String)> {
    let mut all = vec!["--role", role];
    all.extend_from_slice(args);
    let started = Instant::now();
    let mut child = spawn(&all)?;
    let mut line = String::new();
    let stdout: ChildStdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout).read_line(&mut line)?;
    let elapsed = started.elapsed().as_secs_f64();
    let rss = peak_rss_kib(child.id());
    finish(&mut child, Duration::from_secs(10));
    match line.trim().strip_prefix("ready") {
        Some(payload) => Ok((elapsed, rss, payload.trim().to_string())),
        None => Err(io::Error::other(format!(
            "{role} set-up probe failed: `{}`",
            line.trim()
        ))),
    }
}

/// Median set-up time over `n` cluster starts in fresh directories under
/// `dir`; the last cluster is returned running.
pub fn start_cluster_median(dir: &Path, n: usize) -> io::Result<(Cluster, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for i in 0..n {
        if let Some(c) = last.take() {
            Cluster::stop(c);
        }
        let (cluster, t) = Cluster::start(&dir.join(format!("cluster{i}")))?;
        times.push(t);
        last = Some(cluster);
    }
    Ok((last.expect("n >= 1"), crate::openloop::median(&times)))
}

pub fn scratch_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
