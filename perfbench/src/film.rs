//! `film_newell`: a square FeCoB film with the FFT-accelerated Newell
//! demag, built through `SimulationBuilder`, driven by an antenna strip
//! and stepped on `nproc` threads. The padded transform is large enough
//! that the demag passes fan out over the worker team.

use std::time::Instant;

use magnum::excitation::{Antenna, Drive};
use magnum::field::demag::{DemagMethod, NewellDemag};
use magnum::field::FieldTerm;
use magnum::par::WorkerTeam;
use magnum::probe::{Component, DftProbe, RegionProbe};
use magnum::solver::IntegratorKind;
use magnum::{Field3, Material, Mesh, Simulation, Vec3};

use crate::openloop::median;
use crate::procs;
use crate::trace::{attribute, Tracer};
use crate::{Ctx, Report};

pub const N: usize = 384;
pub const CELL: f64 = 5e-9;
/// The film runs `REPS` back-to-back stretches of `STEPS` steps; `work_s`
/// is the fastest: the host's speed swings for seconds at a time, and the
/// fastest stretch is the one a swing moves least.
pub const STEPS: usize = 12;
pub const REPS: usize = 3;
const FREQUENCY: f64 = 9e9;
/// RK4 evaluates the field four times per step.
const EVALS_PER_STEP: f64 = 4.0;
/// |m| may drift from 1 by at most this much.
const NORM_TOLERANCE: f64 = 1e-9;
/// Set-up samples: fresh processes plus this process's own first build.
const SETUP_REPEATS: usize = 3;

fn mesh() -> Mesh {
    Mesh::new(N, N, [CELL, CELL, 1e-9]).expect("film mesh is valid")
}

pub fn build(threads: usize) -> Result<Simulation, String> {
    let mesh = mesh();
    let antenna = Antenna::over_rect(
        &mesh,
        0.0,
        0.0,
        2.0 * CELL,
        N as f64 * CELL,
        Vec3::X,
        Drive::logic_cw(3e3, FREQUENCY, 0.0),
    );
    Simulation::builder(mesh, Material::fecob())
        .uniform_magnetization(Vec3::Z)
        .demag(DemagMethod::NewellFft)
        .antenna(antenna)
        .integrator(IntegratorKind::RungeKutta4)
        .threads(threads)
        .build()
        .map_err(|e| e.to_string())
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Child side of the set-up probe: a fresh process building the film
/// (the Newell kernel spectra included — they are cached per process).
pub fn setup_probe() -> Result<(), String> {
    build(threads())?;
    println!("ready");
    Ok(())
}

/// Child side of the kernel-build probe: times `NewellDemag::new` in a
/// process whose spectra cache is still empty.
pub fn demag_build_probe() -> Result<(), String> {
    let mesh = mesh();
    let t = Instant::now();
    let demag = NewellDemag::new(&mesh, &Material::fecob());
    let elapsed = t.elapsed().as_secs_f64();
    std::hint::black_box(&demag);
    println!("ready {elapsed}");
    Ok(())
}

struct Steps {
    step_ms: Vec<f64>,
    probe_us: Vec<f64>,
    wall_s: f64,
    amplitude: f64,
}

/// Steps the film `STEPS` times, sampling a DFT probe after each step
/// (a fresh probe per stretch).
fn drive(sim: &mut Simulation, tracer: &Tracer) -> Result<Steps, String> {
    let region = RegionProbe::over_rect(
        sim.mesh(),
        (N as f64 - 24.0) * CELL,
        0.0,
        (N as f64 - 16.0) * CELL,
        N as f64 * CELL,
        Component::X,
    );
    let mut probe = DftProbe::new(region, FREQUENCY);
    let mut out = Steps {
        step_ms: Vec::with_capacity(STEPS),
        probe_us: Vec::with_capacity(STEPS),
        wall_s: 0.0,
        amplitude: 0.0,
    };
    let started = Instant::now();
    for _ in 0..STEPS {
        let t = Instant::now();
        tracer
            .span("magnum::solver", None, |_| sim.step())
            .map_err(|e| e.to_string())?;
        out.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let time = sim.time();
        tracer.span("magnum::probe", None, |_| {
            probe.sample(time, sim.magnetization())
        });
        out.probe_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.amplitude = probe.amplitude();
    Ok(out)
}

pub fn run(_ctx: &Ctx, tracer: &Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let threads = threads();
    report.threads = threads;
    // Set-up samples: fresh processes, plus this process's own first
    // build (its kernel-spectra cache is still empty on an untraced run).
    let mut setups = Vec::new();
    let mut child_rss = 0;
    for _ in 1..SETUP_REPEATS {
        let (t, rss, _) = procs::time_ready("film-setup", &[]).map_err(|e| e.to_string())?;
        setups.push(t);
        child_rss = child_rss.max(rss);
    }
    let t = Instant::now();
    let mut sim = build(threads)?;
    setups.push(t.elapsed().as_secs_f64());
    report.setup_s = median(&setups);

    let t0 = tracer.now();
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        reps.push(drive(&mut sim, tracer)?);
    }
    let t1 = tracer.now();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let step_ms: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.step_ms.iter().copied())
        .collect();
    let probe_us: Vec<f64> = reps
        .iter()
        .flat_map(|r| r.probe_us.iter().copied())
        .collect();
    report.work_s = walls.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!(
        "perfbench: film_newell {:.4e} cell-steps/s",
        (N * N * STEPS) as f64 / report.work_s
    );
    report.attempted = (STEPS * REPS) as u64;
    let steps = reps.last().expect("REPS >= 1");

    let m = sim.magnetization().to_vec();
    let norms_ok = m.iter().all(|v| {
        v.x.is_finite()
            && v.y.is_finite()
            && v.z.is_finite()
            && (v.norm() - 1.0).abs() <= NORM_TOLERANCE
    });
    report.check("film_newell.magnetization_finite_unit_norm", norms_ok);
    report.check(
        "film_newell.probe_sees_the_wave",
        steps.amplitude.is_finite() && steps.amplitude > 0.0,
    );
    report.peak_rss_kib = procs::peak_rss_kib(std::process::id()).max(child_rss);

    if tracer.on() {
        let (_, _, payload) = procs::time_ready("demag-build", &[]).map_err(|e| e.to_string())?;
        let build_s: f64 = payload.parse().map_err(|_| "bad demag build time")?;
        let (eval_ms, bytes) = demag_eval(&sim, threads);
        // The solver's demag share per step, modelled from the measured
        // evaluation time; laid as a child of each step span.
        let spans = tracer.spans();
        for (i, s) in spans.iter().enumerate() {
            if s.layer == "magnum::solver" {
                let end = (s.start + EVALS_PER_STEP * eval_ms / 1e3).min(s.end);
                tracer.record("magnum::field::demag", Some(i), s.start, end);
            }
        }
        let mut serial = build(1)?;
        let serial_steps = drive(&mut serial, &Tracer::new(false))?;
        let l = &mut report.layers;
        l.insert("magnum.demag_build_s", build_s);
        l.insert("magnum.demag_eval_ms", eval_ms);
        l.insert("magnum.demag_bytes_per_eval", bytes);
        l.insert("magnum.step_ms", median(&step_ms));
        l.insert("magnum.probe_us", median(&probe_us));
        l.insert(
            "magnum.speedup_vs_serial",
            median(&serial_steps.step_ms) / median(&step_ms),
        );
        report.shares = attribute(&tracer.spans(), t0, t1);
        report.attributed_s = t1 - t0;
    }
    Ok(report)
}

/// Median time of one Newell demag field evaluation on the hot path
/// (`accumulate_par` with the term's scratch) over the film's current
/// magnetization, and the bytes one evaluation moves by the model in
/// README.md: 6 full passes (pack, forward rows/columns, inverse
/// columns/rows, unpack) over a complex padded plane of 16-byte values,
/// read and written, plus one read of the 3 real kernel planes.
fn demag_eval(sim: &Simulation, threads: usize) -> (f64, f64) {
    let demag = NewellDemag::new(sim.mesh(), &Material::fecob());
    let team = WorkerTeam::new(threads);
    let mut scratch = demag.make_scratch();
    let m: &Field3 = sim.magnetization();
    let mut h = Field3::zeros(m.len());
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        demag.accumulate_par(m, 0.0, &mut h, &team, scratch.as_deref_mut());
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let (px, py) = demag.padded_dims();
    let plane = (px * py) as f64;
    let bytes = 6.0 * 2.0 * 16.0 * plane + 3.0 * 8.0 * plane;
    (median(&times), bytes)
}
