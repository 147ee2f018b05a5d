//! The time-stepping engine: one Heun, one RK4 and one Cash–Karp
//! stepper over K-interleaved state, behind both [`Simulation`] (K = 1)
//! and [`BatchedSimulation`] (K ≥ 1).
//!
//! Every experiment in the paper reproduction is N nearly-identical LLG
//! runs — the 8 MAJ3 input patterns, variability sweeps, thermal
//! Monte-Carlo — and each independent run pays the full per-sweep
//! overhead (stencil tables, neighbour-presence branches, CSR offsets,
//! fork/join, FFT twiddle/spectrum loads) on its own. A
//! [`BatchedSimulation`] advances K member simulations in lockstep
//! through one K-interleaved SoA sweep per stage
//! ([`LlgSystem::rhs_stage_batch`]): the shared geometry walk is
//! amortized over all members and the innermost member loop runs over
//! consecutive lanes the vectorizer can use. A solo [`Simulation`] runs
//! the same steppers, scratch and run loops on a batch of one, where the
//! stage entry switches to its cell-vectorized sweep bodies.
//!
//! ## Layout and parity
//!
//! State lives in a [`FieldBatch`] (member `s` of cell `i` at flat index
//! `i·K + s`). Interleaving is a pure permutation and every per-element
//! expression — field terms, torque, stage combinations, renormalization
//! — is the same sequence at every K, so each member's trajectory is
//! bitwise identical to an independent run at any thread count. The one
//! exception is the adaptive Cash–Karp scheme: its error estimate is a
//! max over the *whole batch*, so all members share one step-size
//! sequence — deterministic and identical across thread counts, but not
//! equal to K independently-controlled runs. Use Heun or RK4 when
//! batch/independent parity matters.
//!
//! ## Per-member state
//!
//! Members may differ in antenna *drives* (phase-encoded logic inputs)
//! and in their thermal realization: each member keeps its own
//! [`ThermalField`] RNG stream, drawn member-by-member into a
//! per-member scratch and interleaved afterwards, so the streams never
//! interleave and match the member's independent run draw for draw.
//! Everything structural — mesh, mask, material terms, damping map, time
//! step, integrator, antenna *coverage* — must be shared; construction
//! validates what it can observe and rejects mismatches.

use crate::error::MagnumError;
use crate::excitation::Antenna;
use crate::field::thermal::ThermalField;
use crate::field3::{BatchMemberView, Field3, Field3Ptr, FieldBatch};
use crate::llg::LlgSystem;
use crate::math::Vec3;
use crate::sim::Simulation;
use crate::solver::{axpy_range, renormalize_and_check_batch, IntegratorKind};

/// Shared scratch for one RHS stage: the interleaved pre-pass field and,
/// at K > 1, per-member de-interleave buffers for the unfused (FFT demag)
/// pre-pass, plus the per-member per-antenna drive-field buffers
/// (refilled in place each stage, so the hot loop never allocates).
struct StageScratch {
    base: FieldBatch,
    m: Field3,
    h: Field3,
    ant: Vec<Vec<Vec3>>,
}

impl StageScratch {
    fn new(system: &LlgSystem, k: usize) -> Self {
        let n = system.len();
        let (base, member) = match (system.has_unfused(), k) {
            (false, _) => (FieldBatch::empty(k), 0),
            // A batch of one runs the pre-pass in place on its planes.
            (true, 1) => (FieldBatch::zeros(n, 1), 0),
            (true, _) => (FieldBatch::zeros(n, k), n),
        };
        StageScratch {
            base,
            m: Field3::zeros(member),
            h: Field3::zeros(member),
            ant: vec![Vec::new(); k],
        }
    }
}

/// Everything one stage evaluation reads besides its input and output.
struct Stage<'a> {
    system: &'a mut LlgSystem,
    scratch: &'a mut StageScratch,
    /// Per-member antennas; `None` drives the system's own antennas (a
    /// solo run, whose antennas may change between steps).
    antennas: Option<&'a [Vec<Antenna>]>,
    thermal: &'a FieldBatch,
}

impl Stage<'_> {
    /// One RHS stage: unfused pre-pass (one FFT plan *and* one demag
    /// scratch arena shared across members, so K runs pay for one set of
    /// transform state), per-member antenna drives at the stage time,
    /// then the fused sweep with the integrator's stage combination in
    /// `fuse`.
    fn eval<F>(&mut self, y: &FieldBatch, t: f64, k_out: &mut FieldBatch, fuse: F)
    where
        F: Fn(usize, usize, Field3Ptr) + Sync,
    {
        let sc = &mut *self.scratch;
        let wrote = self
            .system
            .unfused_prepass_batch(y, t, &mut sc.base, &mut sc.m, &mut sc.h);
        let antennas = self
            .antennas
            .unwrap_or(std::slice::from_ref(&self.system.antennas));
        for (dst, ants) in sc.ant.iter_mut().zip(antennas) {
            dst.clear();
            dst.extend(ants.iter().map(|a| a.direction() * a.drive().value(t)));
        }
        let base = if wrote { Some(&sc.base) } else { None };
        self.system
            .rhs_stage_batch(y, k_out, base, &sc.ant, self.thermal, fuse);
    }

    /// Renormalizes every member to |m| = 1 at time `t`.
    fn renormalize(&self, m: &mut FieldBatch, t: f64) -> Result<(), MagnumError> {
        let s = &*self.system;
        renormalize_and_check_batch(m, &s.mask, s.full_film(), t, s.par())
    }
}

/// Second-order Heun scheme.
///
/// With the thermal field frozen over the step this is the standard
/// stochastic-Heun method, converging to the Stratonovich interpretation
/// of the stochastic LLG equation — the physically correct one for
/// Brown's thermal field. Both stages are single fused sweeps: the
/// predictor `m + dt·k1` and the corrector `m + (k1+k2)·dt/2` are applied
/// in the sweep's fuse hook (elementwise, so they run on interleaved
/// planes verbatim).
struct Heun {
    k1: FieldBatch,
    k2: FieldBatch,
    predictor: FieldBatch,
}

impl Heun {
    fn new(cells: usize, k: usize) -> Self {
        Heun {
            k1: FieldBatch::zeros(cells, k),
            k2: FieldBatch::zeros(cells, k),
            predictor: FieldBatch::zeros(cells, k),
        }
    }

    fn step(
        &mut self,
        st: &mut Stage,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        // Safety for the fuse hooks: blocks fuse disjoint ranges, no
        // sweep writes a buffer its field evaluation reads, and every
        // read pointer's buffer outlives the sweep. Reads go through
        // unchecked `Field3Read` so the axpy loops stay branch-free and
        // vectorizable.
        {
            let pred = self.predictor.ptrs();
            let m_in = m.read_ptr();
            st.eval(&*m, t, &mut self.k1, |i0, i1, k| unsafe {
                axpy_range(i0, i1, pred, m_in, k, dt)
            });
        }
        // The second sweep's field evaluation reads only `predictor`, so
        // updating `m` in place at the block's own range is sound.
        {
            let k1 = self.k1.read_ptr();
            let m_out = m.ptrs();
            st.eval(&self.predictor, t + dt, &mut self.k2, |i0, i1, k| unsafe {
                // Per-plane corrector loops, as in `axpy_range`.
                let (mx, my, mz) = m_out.planes();
                let (k1x, k1y, k1z) = k1.planes();
                let (k2x, k2y, k2z) = k.planes();
                for i in i0..i1 {
                    *mx.add(i) += (*k1x.add(i) + *k2x.add(i)) * (dt / 2.0);
                }
                for i in i0..i1 {
                    *my.add(i) += (*k1y.add(i) + *k2y.add(i)) * (dt / 2.0);
                }
                for i in i0..i1 {
                    *mz.add(i) += (*k1z.add(i) + *k2z.add(i)) * (dt / 2.0);
                }
            });
        }
        st.renormalize(m, t + dt)?;
        Ok(dt)
    }
}

/// The classic RK4 scheme — the default workhorse for deterministic
/// spin-wave runs (MuMax3's default family as well).
///
/// Every stage is one fused sweep: the RHS evaluation writes the next
/// stage input (`m + k·dt/2`, …) through the fuse hook, and the final
/// stage applies the `(k1 + 2k2 + 2k3 + k4)·dt/6` combination in place.
/// Two stage buffers ping-pong so a sweep never writes the buffer its
/// field evaluation is reading; `k4` is consumed inside its own sweep, so
/// only its scratch output reuses the idle ping-pong buffer.
struct Rk4 {
    k1: FieldBatch,
    k2: FieldBatch,
    k3: FieldBatch,
    stage_a: FieldBatch,
    stage_b: FieldBatch,
}

impl Rk4 {
    fn new(cells: usize, k: usize) -> Self {
        Rk4 {
            k1: FieldBatch::zeros(cells, k),
            k2: FieldBatch::zeros(cells, k),
            k3: FieldBatch::zeros(cells, k),
            stage_a: FieldBatch::zeros(cells, k),
            stage_b: FieldBatch::zeros(cells, k),
        }
    }

    fn step(
        &mut self,
        st: &mut Stage,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        // Safety for every fuse hook: as in `Heun::step`.
        let m_in = m.read_ptr();
        {
            let out = self.stage_a.ptrs();
            st.eval(&*m, t, &mut self.k1, |i0, i1, k| unsafe {
                axpy_range(i0, i1, out, m_in, k, dt / 2.0)
            });
        }
        {
            let out = self.stage_b.ptrs();
            st.eval(
                &self.stage_a,
                t + dt / 2.0,
                &mut self.k2,
                |i0, i1, k| unsafe { axpy_range(i0, i1, out, m_in, k, dt / 2.0) },
            );
        }
        {
            let out = self.stage_a.ptrs();
            st.eval(
                &self.stage_b,
                t + dt / 2.0,
                &mut self.k3,
                |i0, i1, k| unsafe { axpy_range(i0, i1, out, m_in, k, dt) },
            );
        }
        {
            let k1 = self.k1.read_ptr();
            let k2 = self.k2.read_ptr();
            let k3 = self.k3.read_ptr();
            let m_out = m.ptrs();
            st.eval(
                &self.stage_a,
                t + dt,
                &mut self.stage_b,
                |i0, i1, k| unsafe {
                    // Per-plane loops, as in `axpy_range`: each loop reads
                    // four k planes and updates one m plane.
                    let (mx, my, mz) = m_out.planes();
                    let (k1x, k1y, k1z) = k1.planes();
                    let (k2x, k2y, k2z) = k2.planes();
                    let (k3x, k3y, k3z) = k3.planes();
                    let (k4x, k4y, k4z) = k.planes();
                    for i in i0..i1 {
                        *mx.add(i) +=
                            (*k1x.add(i) + (*k2x.add(i) + *k3x.add(i)) * 2.0 + *k4x.add(i))
                                * (dt / 6.0);
                    }
                    for i in i0..i1 {
                        *my.add(i) +=
                            (*k1y.add(i) + (*k2y.add(i) + *k3y.add(i)) * 2.0 + *k4y.add(i))
                                * (dt / 6.0);
                    }
                    for i in i0..i1 {
                        *mz.add(i) +=
                            (*k1z.add(i) + (*k2z.add(i) + *k3z.add(i)) * 2.0 + *k4z.add(i))
                                * (dt / 6.0);
                    }
                },
            );
        }
        st.renormalize(m, t + dt)?;
        Ok(dt)
    }
}

// Cash–Karp Butcher tableau.
const A: [[f64; 5]; 5] = [
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0],
    [3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0, 0.0, 0.0],
    [-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0, 0.0],
    [
        1631.0 / 55296.0,
        175.0 / 512.0,
        575.0 / 13824.0,
        44275.0 / 110592.0,
        253.0 / 4096.0,
    ],
];
const C: [f64; 6] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0];
const B5: [f64; 6] = [
    37.0 / 378.0,
    0.0,
    250.0 / 621.0,
    125.0 / 594.0,
    0.0,
    512.0 / 1771.0,
];
const B4: [f64; 6] = [
    2825.0 / 27648.0,
    0.0,
    18575.0 / 48384.0,
    13525.0 / 55296.0,
    277.0 / 14336.0,
    1.0 / 4.0,
];

/// The error fold's `max`, keeping NaN: `f64::max` drops a NaN operand,
/// which would score an exploded step as error 0 and accept it. On
/// non-NaN inputs it returns what `f64::max` returns.
fn max_keep_nan(acc: f64, e: f64) -> f64 {
    if acc > e || acc.is_nan() {
        acc
    } else {
        e
    }
}

/// Adaptive 5th-order scheme with an embedded 4th-order error estimate
/// (Cash–Karp coefficients).
///
/// The step is retried with a smaller `dt` until the max-norm of the
/// difference between the 5th- and 4th-order solutions is below the
/// configured tolerance; the accepted step size is returned and the next
/// suggestion is kept for the following step. The estimate is the max
/// over *all* members, so the controller drives one shared step-size
/// sequence for the whole batch (see the module docs for the parity
/// caveat).
///
/// Each of the six stages is one fused sweep: the sweep computing `k_s`
/// also assembles the stage input for `k_{s+1}` (the `m + Σ a·dt·k`
/// combination, accumulated in ascending order) in its fuse hook. Two
/// stage buffers ping-pong so a sweep never writes the buffer its field
/// evaluation reads. The embedded-error finish is its own block-parallel
/// reduction.
struct CashKarp {
    tolerance: f64,
    suggested: Option<f64>,
    k: [FieldBatch; 6],
    stage_a: FieldBatch,
    stage_b: FieldBatch,
    y5: FieldBatch,
}

impl CashKarp {
    fn new(cells: usize, k: usize, tolerance: f64) -> Self {
        CashKarp {
            tolerance: tolerance.max(1e-14),
            suggested: None,
            k: std::array::from_fn(|_| FieldBatch::zeros(cells, k)),
            stage_a: FieldBatch::zeros(cells, k),
            stage_b: FieldBatch::zeros(cells, k),
            y5: FieldBatch::zeros(cells, k),
        }
    }

    /// Evaluates the six stages and returns the batch-wide max-norm
    /// error estimate — non-finite when any element exploded. The
    /// per-block maxima are folded in block order; a max over disjoint
    /// index sets is exact, so the estimate (and therefore the step-size
    /// control path) is identical for any thread count.
    fn attempt(&mut self, st: &mut Stage, t: f64, dt: f64, m: &FieldBatch) -> f64 {
        let m_r = m.read_ptr();
        for s in 0..6 {
            // Split borrows: k[s] is written, k[0..s] are read in the
            // fuse hook — through unchecked `Field3Read` pointers taken
            // after the split, so the fused inner loop stays branch-free.
            let (head, tail) = self.k.split_at_mut(s);
            let mut head_r = [m_r; 5];
            for (r, kb) in head_r.iter_mut().zip(head.iter()) {
                *r = kb.read_ptr();
            }
            let head_r = &head_r[..s.min(5)];
            let k_out = &mut tail[0];
            let (y, out): (&FieldBatch, _) = match s {
                0 => (m, self.stage_a.ptrs()),
                _ if s % 2 == 1 => (&self.stage_a, self.stage_b.ptrs()),
                _ => (&self.stage_b, self.stage_a.ptrs()),
            };
            let ts = if s == 0 { t } else { t + C[s] * dt };
            // Safety (all unchecked reads below): each block fuses a
            // disjoint index set, `i` is in bounds for every buffer, and
            // the buffers behind `m_r`/`head_r` are not mutated during
            // the sweep; the sweep's field evaluation never reads `out`.
            st.eval(y, ts, k_out, |i0, i1, k| {
                if s == 5 {
                    return;
                }
                for i in i0..i1 {
                    let mut acc = unsafe { m_r.get(i) };
                    for (jj, kb) in head_r.iter().enumerate() {
                        acc += unsafe { kb.get(i) } * (A[s][jj] * dt);
                    }
                    acc += unsafe { k.read(i) } * (A[s][s] * dt);
                    unsafe { out.write(i, acc) };
                }
            });
        }
        let total = m.cells() * m.k();
        let team = st.system.par();
        let nb = team.threads().max(1);
        let k = &self.k;
        let md = m.data();
        let out = self.y5.ptrs();
        let partials = team.map_blocks(|b| {
            let (start, end) = crate::par::chunk_bounds(total, nb, b);
            let mut err: f64 = 0.0;
            for i in start..end {
                let mut y5 = md.get(i);
                let mut y4 = md.get(i);
                for (s, kb) in k.iter().enumerate() {
                    let ks = kb.data().get(i);
                    y5 += ks * (B5[s] * dt);
                    y4 += ks * (B4[s] * dt);
                }
                // Safety: chunk ranges are disjoint across blocks.
                unsafe { out.write(i, y5) };
                err = max_keep_nan(err, (y5 - y4).norm());
            }
            err
        });
        partials.into_iter().fold(0.0, max_keep_nan)
    }

    fn step(
        &mut self,
        st: &mut Stage,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        let mut h = self.suggested.map_or(dt, |s| s.min(dt));
        let min_step = dt * 1e-6;
        loop {
            let err = self.attempt(st, t, h, m);
            if !err.is_finite() {
                // Retry with a much smaller step before giving up.
                h *= 0.1;
                if h < min_step {
                    return Err(MagnumError::Diverged { time: t });
                }
                continue;
            }
            if err <= self.tolerance {
                m.data_mut().copy_from(self.y5.data());
                st.renormalize(m, t + h)?;
                // Controller: grow conservatively, cap at the hint `dt`.
                let factor = if err == 0.0 {
                    5.0
                } else {
                    (0.9 * (self.tolerance / err).powf(0.2)).clamp(0.2, 5.0)
                };
                self.suggested = Some((h * factor).min(dt));
                return Ok(h);
            }
            let factor = (0.9 * (self.tolerance / err).powf(0.25)).clamp(0.1, 0.9);
            h *= factor;
            if h < min_step {
                return Err(MagnumError::StepSizeUnderflow { time: t });
            }
        }
    }
}

/// The integrator scheme.
enum Scheme {
    Heun(Heun),
    Rk4(Rk4),
    // Boxed: the Cash-Karp state (error planes + controller) is ~2x the
    // other variants; keep the enum small for the common fixed-step case.
    CashKarp(Box<CashKarp>),
}

/// One integrator instance with its stage buffers and stage scratch,
/// sized for a system and a batch width.
struct Stepper {
    scheme: Scheme,
    scratch: StageScratch,
}

impl Stepper {
    fn new(kind: IntegratorKind, system: &LlgSystem, k: usize) -> Self {
        let cells = system.len();
        let scheme = match kind {
            IntegratorKind::Heun => Scheme::Heun(Heun::new(cells, k)),
            IntegratorKind::RungeKutta4 => Scheme::Rk4(Rk4::new(cells, k)),
            IntegratorKind::CashKarp45 { tolerance } => {
                Scheme::CashKarp(Box::new(CashKarp::new(cells, k, tolerance)))
            }
        };
        Stepper {
            scheme,
            scratch: StageScratch::new(system, k),
        }
    }

    /// Advances `m` by one step starting at time `t` with suggested step
    /// `dt`, returning the step size actually taken (the adaptive scheme
    /// may take less).
    ///
    /// # Errors
    ///
    /// * [`MagnumError::Diverged`] if the state becomes non-finite.
    /// * [`MagnumError::StepSizeUnderflow`] if the adaptive scheme
    ///   cannot meet its tolerance.
    fn step(
        &mut self,
        system: &mut LlgSystem,
        antennas: Option<&[Vec<Antenna>]>,
        thermal: &FieldBatch,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        let mut st = Stage {
            system,
            scratch: &mut self.scratch,
            antennas,
            thermal,
        };
        match &mut self.scheme {
            Scheme::Heun(s) => s.step(&mut st, t, dt, m),
            Scheme::Rk4(s) => s.step(&mut st, t, dt, m),
            Scheme::CashKarp(s) => s.step(&mut st, t, dt, m),
        }
    }
}

/// The state a stepped simulation owns: the K-interleaved magnetization,
/// the thermal planes, the clock and the stepper. [`Simulation`] holds one
/// at K = 1, [`BatchedSimulation`] one at K.
pub(crate) struct Engine {
    kind: IntegratorKind,
    pub(crate) m: FieldBatch,
    /// K-interleaved thermal realization for the current step (empty at
    /// T = 0).
    thermal: FieldBatch,
    /// Per-member draw buffer: each member's own RNG stream writes here
    /// before interleaving, so streams never mix.
    thermal_scratch: Vec<Vec3>,
    /// Built on the first step, so a simulation that only ever runs as a
    /// batch member allocates no stage buffers of its own.
    stepper: Option<Stepper>,
    pub(crate) time: f64,
    pub(crate) dt: f64,
}

impl Engine {
    /// An engine over the members in `m`, at clock `time` with step `dt`;
    /// `thermal` reserves the thermal planes (T > 0).
    pub(crate) fn new(
        kind: IntegratorKind,
        m: FieldBatch,
        thermal: bool,
        time: f64,
        dt: f64,
    ) -> Self {
        let (n, k) = (m.cells(), m.k());
        Engine {
            kind,
            m,
            thermal: if thermal {
                FieldBatch::zeros(n, k)
            } else {
                FieldBatch::empty(k)
            },
            thermal_scratch: if thermal {
                vec![Vec3::ZERO; n]
            } else {
                Vec::new()
            },
            stepper: None,
            time,
            dt,
        }
    }

    /// The integrator scheme.
    pub(crate) fn kind(&self) -> IntegratorKind {
        self.kind
    }

    /// The thermal realization of the current step (empty at T = 0).
    pub(crate) fn thermal(&self) -> &FieldBatch {
        &self.thermal
    }

    /// Draws member `s`'s realization for the coming step from its own
    /// generator: the same ascending-cell draw sequence as the member's
    /// independent run.
    pub(crate) fn draw_thermal(&mut self, s: usize, source: &mut ThermalField) {
        source.draw(self.dt, &mut self.thermal_scratch);
        self.thermal.load_member(s, &self.thermal_scratch[..]);
    }

    /// Advances every member by one step from the current clock and
    /// returns the step taken, without moving the clock. `frozen` leaves
    /// the thermal field out (relaxation).
    pub(crate) fn advance(
        &mut self,
        system: &mut LlgSystem,
        antennas: Option<&[Vec<Antenna>]>,
        frozen: bool,
    ) -> Result<f64, MagnumError> {
        let (kind, k) = (self.kind, self.m.k());
        let stepper = self
            .stepper
            .get_or_insert_with(|| Stepper::new(kind, system, k));
        let none = FieldBatch::empty(k);
        let thermal = if frozen { &none } else { &self.thermal };
        stepper.step(system, antennas, thermal, self.time, self.dt, &mut self.m)
    }

    /// Advances every member by one step and moves the clock.
    pub(crate) fn step(
        &mut self,
        system: &mut LlgSystem,
        antennas: Option<&[Vec<Antenna>]>,
    ) -> Result<(), MagnumError> {
        self.time += self.advance(system, antennas, false)?;
        Ok(())
    }
}

/// A simulation that steps on a clock; the run loops below serve both
/// [`Simulation`] and [`BatchedSimulation`].
pub(crate) trait Clocked {
    /// Current simulation time in seconds.
    fn now(&self) -> f64;
    /// Advances by one step.
    fn advance(&mut self) -> Result<(), MagnumError>;
}

/// Runs for `duration` seconds (rounded up to whole steps).
pub(crate) fn run<S: Clocked>(sim: &mut S, duration: f64) -> Result<(), MagnumError> {
    let t_end = sim.now() + duration;
    while sim.now() < t_end - 1e-21 {
        sim.advance()?;
    }
    Ok(())
}

/// Runs for `duration` seconds, invoking `observer` every
/// `sample_interval` seconds of simulated time (and once at the start);
/// see [`Simulation::run_sampled`] for the schedule.
pub(crate) fn run_sampled<S, F>(
    sim: &mut S,
    duration: f64,
    sample_interval: f64,
    mut observer: F,
) -> Result<(), MagnumError>
where
    S: Clocked,
    F: FnMut(f64, &S),
{
    if !(sample_interval.is_finite() && sample_interval > 0.0) {
        return Err(MagnumError::InvalidConfig {
            reason: format!("sample interval must be positive and finite, got {sample_interval}"),
        });
    }
    let t0 = sim.now();
    let t_end = t0 + duration;
    let mut taken: u64 = 0;
    while sim.now() < t_end - 1e-21 {
        if sim.now() >= t0 + taken as f64 * sample_interval - 1e-21 {
            observer(sim.now(), sim);
            taken += 1;
        }
        sim.advance()?;
    }
    // The loop exits at t_end, so a sample scheduled for the final
    // instant has not fired yet; take it now. If the next scheduled
    // sample lies beyond the run, everything due has already fired.
    if taken == 0 || t0 + taken as f64 * sample_interval <= t_end + 1e-21 {
        observer(sim.now(), sim);
    }
    Ok(())
}

/// K same-geometry simulations advanced in lockstep through one batched
/// sweep per integrator stage (see the module docs).
///
/// Built from K [`Simulation`]s via [`BatchedSimulation::new`]; member
/// 0's [`LlgSystem`] hosts the shared kernel, worker team and field
/// terms for the whole batch. Recover the members (with state written
/// back) via [`BatchedSimulation::into_members`].
pub struct BatchedSimulation {
    sims: Vec<Simulation>,
    /// Per-member antennas (cloned out of the members so stage
    /// evaluation does not alias the host system borrow).
    member_antennas: Vec<Vec<Antenna>>,
    engine: Engine,
}

impl BatchedSimulation {
    /// Assembles a batch from K member simulations.
    ///
    /// Members must share everything structural: mesh (dimensions and
    /// mask), damping map, gyromagnetic ratio, time step, clock,
    /// integrator choice, thermal on/off, and antenna *coverage* (cell
    /// sets and field axes — drives may differ, that is the point).
    /// Field terms are taken from member 0 and must be identical across
    /// members (same material and demag choice); this is the caller's
    /// contract, as terms are not introspectable.
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] for an empty batch or any
    /// observable mismatch.
    pub fn new(sims: Vec<Simulation>) -> Result<Self, MagnumError> {
        let invalid = |reason: String| MagnumError::InvalidConfig { reason };
        if sims.is_empty() {
            return Err(invalid("batch needs at least one member".into()));
        }
        let k = sims.len();
        let host = &sims[0];
        let n = host.mesh().cell_count();
        for (s, sim) in sims.iter().enumerate().skip(1) {
            if sim.mesh().nx() != host.mesh().nx() || sim.mesh().ny() != host.mesh().ny() {
                return Err(invalid(format!("member {s}: mesh dimensions differ")));
            }
            if sim.mesh().mask() != host.mesh().mask() {
                return Err(invalid(format!("member {s}: geometry mask differs")));
            }
            if sim.system_ref().alpha != host.system_ref().alpha {
                return Err(invalid(format!("member {s}: damping map differs")));
            }
            if sim.system_ref().gamma != host.system_ref().gamma {
                return Err(invalid(format!("member {s}: gyromagnetic ratio differs")));
            }
            if sim.time_step() != host.time_step() {
                return Err(invalid(format!("member {s}: time step differs")));
            }
            if sim.time() != host.time() {
                return Err(invalid(format!("member {s}: clock differs")));
            }
            if sim.integrator_kind() != host.integrator_kind() {
                return Err(invalid(format!("member {s}: integrator differs")));
            }
            if sim.has_thermal() != host.has_thermal() {
                return Err(invalid(format!("member {s}: thermal on/off differs")));
            }
            let (a, b) = (&sim.system_ref().antennas, &host.system_ref().antennas);
            if a.len() != b.len() {
                return Err(invalid(format!("member {s}: antenna count differs")));
            }
            for (ai, (x, y)) in a.iter().zip(b).enumerate() {
                if x.cells() != y.cells() || x.direction() != y.direction() {
                    return Err(invalid(format!(
                        "member {s}: antenna {ai} coverage differs (cell sets and field \
                         axes must be shared; only drives may vary across the batch)"
                    )));
                }
            }
        }

        let member_antennas: Vec<Vec<Antenna>> = sims
            .iter()
            .map(|sim| sim.system_ref().antennas.clone())
            .collect();
        let mut m = FieldBatch::zeros(n, k);
        for (s, sim) in sims.iter().enumerate() {
            m.load_member(s, sim.magnetization());
        }
        let engine = Engine::new(
            host.integrator_kind(),
            m,
            host.has_thermal(),
            host.time(),
            host.time_step(),
        );
        Ok(BatchedSimulation {
            sims,
            member_antennas,
            engine,
        })
    }

    /// Batch width K.
    pub fn k(&self) -> usize {
        self.sims.len()
    }

    /// Current simulation time in seconds (shared by all members).
    pub fn time(&self) -> f64 {
        self.engine.time
    }

    /// The fixed time step in seconds.
    pub fn time_step(&self) -> f64 {
        self.engine.dt
    }

    /// The worker-thread count of the shared engine.
    pub fn threads(&self) -> usize {
        self.sims[0].threads()
    }

    /// Read-only view of member `s`'s magnetization (usable wherever a
    /// [`crate::MagRead`] is accepted — probes, snapshots).
    pub fn member(&self, s: usize) -> BatchMemberView<'_> {
        self.engine.m.member(s)
    }

    /// Member `s`'s simulation (mesh, material, probes geometry). Its
    /// magnetization and clock are only current after
    /// [`BatchedSimulation::sync_members`].
    pub fn member_sim(&self, s: usize) -> &Simulation {
        &self.sims[s]
    }

    /// Writes the batch state (magnetization, clock) back into every
    /// member simulation.
    pub fn sync_members(&mut self) {
        for (s, sim) in self.sims.iter_mut().enumerate() {
            self.engine.m.store_member(s, sim.magnetization_mut());
            sim.set_time_internal(self.engine.time);
        }
    }

    /// Dissolves the batch, returning the member simulations with their
    /// final state written back.
    pub fn into_members(mut self) -> Vec<Simulation> {
        self.sync_members();
        self.sims
    }

    /// Advances all members by exactly one time step.
    ///
    /// # Errors
    ///
    /// Propagates integrator failures ([`MagnumError::Diverged`],
    /// [`MagnumError::StepSizeUnderflow`]).
    pub fn step(&mut self) -> Result<(), MagnumError> {
        for (s, sim) in self.sims.iter_mut().enumerate() {
            if let Some(source) = sim.thermal_field_mut() {
                self.engine.draw_thermal(s, source);
            }
        }
        let host = self.sims[0].system_mut();
        self.engine.step(host, Some(&self.member_antennas))
    }

    /// Runs for `duration` seconds (rounded up to whole steps).
    ///
    /// # Errors
    ///
    /// Propagates the first step failure.
    pub fn run(&mut self, duration: f64) -> Result<(), MagnumError> {
        run(self, duration)
    }

    /// Runs for `duration` seconds, invoking `observer` every
    /// `sample_interval` seconds of simulated time (and once at the
    /// start) — the batch analogue of [`Simulation::run_sampled`], with
    /// the identical sample schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MagnumError::InvalidConfig`] for a non-positive sample
    /// interval, and propagates the first step failure.
    pub fn run_sampled<F>(
        &mut self,
        duration: f64,
        sample_interval: f64,
        observer: F,
    ) -> Result<(), MagnumError>
    where
        F: FnMut(f64, &BatchedSimulation),
    {
        run_sampled(self, duration, sample_interval, observer)
    }
}

impl Clocked for BatchedSimulation {
    fn now(&self) -> f64 {
        self.engine.time
    }
    fn advance(&mut self) -> Result<(), MagnumError> {
        self.step()
    }
}

impl std::fmt::Debug for BatchedSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSimulation")
            .field("k", &self.k())
            .field("cells", &self.engine.m.cells())
            .field("time", &self.engine.time)
            .field("dt", &self.engine.dt)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::damping::AbsorbingFrame;
    use crate::excitation::Drive;
    use crate::field::demag::DemagMethod;
    use crate::material::Material;
    use crate::mesh::Mesh;
    use crate::sim::SimulationBuilder;
    use crate::solver::test_support::{macrospin, macrospin_analytic};

    const CELL: f64 = 5e-9;

    fn driven_sim(phase: f64, threads: usize) -> SimulationBuilder {
        let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
        let antenna = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            2.0 * CELL,
            8.0 * CELL,
            Vec3::X,
            Drive::logic_cw(3e3, 9e9, phase),
        );
        Simulation::builder(mesh, Material::fecob())
            .uniform_magnetization(Vec3::Z)
            .demag(DemagMethod::ThinFilmLocal)
            .absorbing_frame(AbsorbingFrame::new(2, 0.5))
            .antenna(antenna)
            .threads(threads)
            .min_cells_per_thread(0)
    }

    fn collect(sim: &Simulation) -> Vec<Vec3> {
        sim.magnetization().to_vec()
    }

    /// The triangle gate of the golden traces: apex to the right, an
    /// antenna on the left edge, an absorbing frame.
    fn shaped_gate(phase: f64, threads: usize) -> SimulationBuilder {
        let (nx, ny) = (48, 24);
        let mut mesh = Mesh::new(nx, ny, [CELL, CELL, 1e-9]).unwrap();
        let (w, h) = (nx as f64 * CELL, ny as f64 * CELL);
        let triangle = crate::geometry::Polygon::new(vec![(0.0, 0.0), (0.0, h), (w, h / 2.0)]);
        crate::geometry::rasterize(&mut mesh, &triangle);
        let antenna = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            2.0 * CELL,
            h,
            Vec3::X,
            Drive::logic_cw(3e3, 9e9, phase),
        );
        Simulation::builder(mesh, Material::fecob())
            .uniform_magnetization(Vec3::Z)
            .demag(DemagMethod::ThinFilmLocal)
            .absorbing_frame(AbsorbingFrame::new(3, 0.5))
            .antenna(antenna)
            .threads(threads)
            .min_cells_per_thread(0)
    }

    #[test]
    fn batches_of_one_and_two_match_solo_runs_on_the_shaped_gate() {
        // K = 1 runs the cell-vectorized sweep bodies, K = 2 the lane
        // bodies; both must reproduce the solo trajectory bit for bit.
        // Cash–Karp shares one step-size controller across the batch, so
        // its two members carry the same drive: only then is the shared
        // step sequence each member's own.
        type Build = fn(usize, usize) -> Simulation;
        let heun: Build = |s, threads| {
            shaped_gate(1.1 * s as f64, threads)
                .integrator(IntegratorKind::Heun)
                .temperature(300.0)
                .seed(5 + s as u64)
                .build()
                .unwrap()
        };
        let cash_karp: Build = |_, threads| {
            shaped_gate(0.4, threads)
                .integrator(IntegratorKind::CashKarp45 { tolerance: 1e-7 })
                .build()
                .unwrap()
        };
        let steps = 6;
        for (name, build) in [("heun at 300 K", heun), ("cash-karp", cash_karp)] {
            for threads in [1, 4] {
                let solo: Vec<(Vec<Vec3>, f64)> = (0..2)
                    .map(|s| {
                        let mut sim = build(s, threads);
                        for _ in 0..steps {
                            sim.step().unwrap();
                        }
                        (collect(&sim), sim.time())
                    })
                    .collect();
                for k in [1, 2] {
                    let members = (0..k).map(|s| build(s, threads)).collect();
                    let mut batch = BatchedSimulation::new(members).unwrap();
                    for _ in 0..steps {
                        batch.step().unwrap();
                    }
                    for (s, sim) in batch.into_members().iter().enumerate() {
                        assert_eq!(
                            (collect(sim), sim.time()),
                            solo[s],
                            "{name}: K = {k} member {s} diverged at {threads} threads"
                        );
                    }
                }
            }
        }
        let (a, b) = (heun(0, 1), heun(1, 1));
        let mut pair = [a, b];
        for sim in &mut pair {
            sim.step().unwrap();
        }
        assert_ne!(collect(&pair[0]), collect(&pair[1]), "members must differ");
    }

    /// A stepper for `kind` on the macrospin, with m = x̂.
    fn macrospin_stepper(
        kind: IntegratorKind,
        alpha: f64,
        h: f64,
    ) -> (LlgSystem, Stepper, FieldBatch) {
        let sys = macrospin(alpha, h);
        let stepper = Stepper::new(kind, &sys, 1);
        let mut m = FieldBatch::zeros(1, 1);
        m.set(0, 0, Vec3::X);
        (sys, stepper, m)
    }

    /// One solo step of the macrospin (no antennas, T = 0).
    fn solo_step(
        stepper: &mut Stepper,
        sys: &mut LlgSystem,
        t: f64,
        dt: f64,
        m: &mut FieldBatch,
    ) -> Result<f64, MagnumError> {
        stepper.step(sys, None, &FieldBatch::empty(1), t, dt, m)
    }

    /// Integrates the macrospin from m = x̂ to `t_end` with steps of at
    /// most `dt`.
    fn run_macrospin(kind: IntegratorKind, alpha: f64, h: f64, t_end: f64, dt: f64) -> Vec3 {
        let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, alpha, h);
        let mut t = 0.0;
        while t < t_end - 1e-18 {
            let step = dt.min(t_end - t);
            t += solo_step(&mut stepper, &mut sys, t, step, &mut m).expect("step failed");
        }
        m.get(0, 0)
    }

    fn suggested_dt(stepper: &Stepper) -> Option<f64> {
        match &stepper.scheme {
            Scheme::CashKarp(ck) => ck.suggested,
            _ => None,
        }
    }

    #[test]
    fn all_integrators_match_macrospin_analytics() {
        let alpha = 0.1;
        let h = 1e5;
        let t_end = 50e-12;
        let expected = macrospin_analytic(alpha, h, t_end);
        for kind in [
            IntegratorKind::Heun,
            IntegratorKind::RungeKutta4,
            IntegratorKind::CashKarp45 { tolerance: 1e-8 },
        ] {
            let m = run_macrospin(kind, alpha, h, t_end, 5e-15);
            let err = (m - expected).norm();
            assert!(
                err < 1e-4,
                "{kind:?} error vs analytic solution too large: {err} (m = {m}, expected {expected})"
            );
        }
    }

    #[test]
    fn integrators_preserve_unit_norm() {
        for kind in [
            IntegratorKind::Heun,
            IntegratorKind::RungeKutta4,
            IntegratorKind::CashKarp45 { tolerance: 1e-7 },
        ] {
            let m = run_macrospin(kind, 0.02, 5e5, 100e-12, 1e-14);
            assert!(
                (m.norm() - 1.0).abs() < 1e-12,
                "{kind:?} drifted off the unit sphere"
            );
        }
    }

    #[test]
    fn rk4_is_more_accurate_than_heun_at_same_step() {
        let alpha = 0.05;
        let h = 2e5;
        let t_end = 100e-12;
        let dt = 1e-13;
        let expected = macrospin_analytic(alpha, h, t_end);
        let err_heun = (run_macrospin(IntegratorKind::Heun, alpha, h, t_end, dt) - expected).norm();
        let err_rk4 =
            (run_macrospin(IntegratorKind::RungeKutta4, alpha, h, t_end, dt) - expected).norm();
        assert!(
            err_rk4 < err_heun,
            "RK4 ({err_rk4}) should beat Heun ({err_heun}) at dt = {dt}"
        );
    }

    #[test]
    fn heun_converges_at_second_order() {
        let alpha = 0.1;
        let h = 1e5;
        let t_end = 40e-12;
        let expected = macrospin_analytic(alpha, h, t_end);
        let mut errors = Vec::new();
        for &dt in &[2e-14, 1e-14, 5e-15] {
            let (mut sys, mut stepper, mut m) = macrospin_stepper(IntegratorKind::Heun, alpha, h);
            let steps = (t_end / dt).round() as usize;
            let mut t = 0.0;
            for _ in 0..steps {
                solo_step(&mut stepper, &mut sys, t, dt, &mut m).unwrap();
                t += dt;
            }
            errors.push((m.get(0, 0) - expected).norm());
        }
        // Halving dt should cut the error by ~4 (2nd order); allow slack
        // because renormalization perturbs the asymptotics slightly.
        assert!(
            errors[0] / errors[1] > 2.5,
            "convergence ratio too low: {:?}",
            errors
        );
        assert!(errors[1] / errors[2] > 2.5);
    }

    #[test]
    fn heun_step_returns_dt() {
        let (mut sys, mut stepper, mut m) = macrospin_stepper(IntegratorKind::Heun, 0.01, 1e5);
        let taken = solo_step(&mut stepper, &mut sys, 0.0, 1e-14, &mut m).unwrap();
        assert_eq!(taken, 1e-14);
    }

    #[test]
    fn rk4_high_accuracy_on_macrospin() {
        let alpha = 0.05;
        let h = 2e5;
        let t_end: f64 = 100e-12;
        let m = run_macrospin(IntegratorKind::RungeKutta4, alpha, h, t_end, 2e-14);
        let expected = macrospin_analytic(alpha, h, t_end);
        assert!(
            (m - expected).norm() < 1e-8,
            "RK4 error {} too large",
            (m - expected).norm()
        );
    }

    #[test]
    fn rk4_diverges_cleanly_on_absurd_step() {
        // A gigantic dt makes the update blow up; the integrator must
        // report divergence rather than silently continuing.
        let (mut sys, mut stepper, mut m) =
            macrospin_stepper(IntegratorKind::RungeKutta4, 0.01, 1e7);
        let mut failed = false;
        for i in 0..100 {
            match solo_step(&mut stepper, &mut sys, i as f64, 1.0, &mut m) {
                Err(MagnumError::Diverged { .. }) => {
                    failed = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
                Ok(_) => {
                    // Renormalization may keep it bounded; that's fine too.
                }
            }
        }
        // Either it diverged and said so, or the projection kept |m| = 1.
        if !failed {
            assert!((m.get(0, 0).norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cash_karp_meets_tolerance_on_macrospin() {
        let alpha = 0.1;
        let h0 = 1e5;
        let t_end: f64 = 100e-12;
        let kind = IntegratorKind::CashKarp45 { tolerance: 1e-10 };
        let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, alpha, h0);
        let mut t = 0.0;
        while t < t_end - 1e-18 {
            let hint = (t_end - t).min(1e-12);
            t += solo_step(&mut stepper, &mut sys, t, hint, &mut m).unwrap();
        }
        let expected = macrospin_analytic(alpha, h0, t_end);
        let err = (m.get(0, 0) - expected).norm();
        assert!(err < 1e-6, "adaptive error {err}");
    }

    #[test]
    fn cash_karp_shrinks_step_when_tolerance_is_tight() {
        let kind = IntegratorKind::CashKarp45 { tolerance: 1e-12 };
        let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, 0.1, 1e6);
        let taken = solo_step(&mut stepper, &mut sys, 0.0, 1e-11, &mut m).unwrap();
        assert!(taken <= 1e-11);
        assert!(suggested_dt(&stepper).is_some());
    }

    #[test]
    fn cash_karp_loose_tolerance_accepts_the_hint() {
        let kind = IntegratorKind::CashKarp45 { tolerance: 1e-3 };
        let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, 0.1, 1e4);
        let taken = solo_step(&mut stepper, &mut sys, 0.0, 1e-14, &mut m).unwrap();
        assert_eq!(taken, 1e-14);
    }

    #[test]
    fn cash_karp_suggestion_never_exceeds_hint() {
        let kind = IntegratorKind::CashKarp45 { tolerance: 1e-6 };
        let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, 0.05, 1e5);
        for i in 0..50 {
            solo_step(&mut stepper, &mut sys, i as f64 * 1e-13, 1e-13, &mut m).unwrap();
            assert!(suggested_dt(&stepper).unwrap() <= 1e-13 + 1e-30);
        }
    }

    #[test]
    fn cash_karp_never_accepts_an_exploded_attempt() {
        // A 1e7 A/m macrospin with a hint far beyond its stability limit:
        // the stages overflow to ±inf and NaN. The error estimate must
        // say so, and the step must retry smaller or fail at its own
        // start time — not accept the explosion and report a time the
        // run never reached.
        let kind = IntegratorKind::CashKarp45 { tolerance: 1e-6 };
        let t0 = 0.5;
        for hint in [1.0, 1e-3] {
            let (mut sys, mut stepper, m) = macrospin_stepper(kind, 0.01, 1e7);
            let Stepper { scheme, scratch } = &mut stepper;
            let Scheme::CashKarp(ck) = scheme else {
                unreachable!("built as Cash–Karp")
            };
            let mut st = Stage {
                system: &mut sys,
                scratch,
                antennas: None,
                thermal: &FieldBatch::empty(1),
            };
            let err = ck.attempt(&mut st, t0, hint, &m);
            assert!(
                !err.is_finite(),
                "hint {hint}: exploded attempt scored {err}"
            );

            let (mut sys, mut stepper, mut m) = macrospin_stepper(kind, 0.01, 1e7);
            match solo_step(&mut stepper, &mut sys, t0, hint, &mut m) {
                Ok(taken) => {
                    assert!(taken < hint, "hint {hint}: accepted the exploded step");
                    assert!((m.get(0, 0).norm() - 1.0).abs() < 1e-9);
                }
                Err(MagnumError::Diverged { time } | MagnumError::StepSizeUnderflow { time }) => {
                    assert_eq!(time, t0, "hint {hint}: failure must carry the step's start")
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
    }

    #[test]
    fn batched_rk4_matches_independent_runs_bitwise() {
        let phases = [0.0, std::f64::consts::PI, 1.3];
        let steps = 8;
        for threads in [1, 2, 4] {
            let independent: Vec<Vec<Vec3>> = phases
                .iter()
                .map(|&p| {
                    let mut sim = driven_sim(p, threads).build().unwrap();
                    for _ in 0..steps {
                        sim.step().unwrap();
                    }
                    collect(&sim)
                })
                .collect();
            let sims: Vec<Simulation> = phases
                .iter()
                .map(|&p| driven_sim(p, threads).build().unwrap())
                .collect();
            let mut batch = BatchedSimulation::new(sims).unwrap();
            for _ in 0..steps {
                batch.step().unwrap();
            }
            let members = batch.into_members();
            for (s, sim) in members.iter().enumerate() {
                assert_eq!(
                    collect(sim),
                    independent[s],
                    "member {s} diverged from its independent run at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn batched_thermal_heun_keeps_rng_streams_separate() {
        let seeds = [3u64, 17, 29, 91];
        let steps = 6;
        let build = |seed: u64| {
            let mesh = Mesh::new(12, 6, [CELL, CELL, 1e-9]).unwrap();
            Simulation::builder(mesh, Material::fecob())
                .uniform_magnetization(Vec3::Z)
                .temperature(300.0)
                .seed(seed)
                .build()
                .unwrap()
        };
        let independent: Vec<Vec<Vec3>> = seeds
            .iter()
            .map(|&seed| {
                let mut sim = build(seed);
                for _ in 0..steps {
                    sim.step().unwrap();
                }
                collect(&sim)
            })
            .collect();
        let mut batch = BatchedSimulation::new(seeds.iter().map(|&s| build(s)).collect()).unwrap();
        for _ in 0..steps {
            batch.step().unwrap();
        }
        let members = batch.into_members();
        for (s, sim) in members.iter().enumerate() {
            assert_eq!(
                collect(sim),
                independent[s],
                "member {s} (seed {}) diverged — RNG streams interleaved?",
                seeds[s]
            );
        }
        // Different seeds must produce different trajectories (the test
        // would be vacuous if all members drew the same noise).
        assert_ne!(independent[0], independent[1]);
    }

    #[test]
    fn batched_newell_demag_matches_independent_runs() {
        let build = |phase: f64| {
            driven_sim(phase, 1)
                .demag(DemagMethod::NewellFft)
                .build()
                .unwrap()
        };
        let steps = 4;
        let phases = [0.0, std::f64::consts::PI];
        let independent: Vec<Vec<Vec3>> = phases
            .iter()
            .map(|&p| {
                let mut sim = build(p);
                for _ in 0..steps {
                    sim.step().unwrap();
                }
                collect(&sim)
            })
            .collect();
        let mut batch = BatchedSimulation::new(phases.iter().map(|&p| build(p)).collect()).unwrap();
        for _ in 0..steps {
            batch.step().unwrap();
        }
        let members = batch.into_members();
        for (s, sim) in members.iter().enumerate() {
            assert_eq!(collect(sim), independent[s], "member {s} diverged");
        }
    }

    #[test]
    fn run_and_sync_write_back_time_and_state() {
        let sims: Vec<Simulation> = (0..2)
            .map(|_| driven_sim(0.0, 1).build().unwrap())
            .collect();
        let dt = sims[0].time_step();
        let mut batch = BatchedSimulation::new(sims).unwrap();
        batch.run(dt * 3.0).unwrap();
        assert!((batch.time() - 3.0 * dt).abs() < 1e-21);
        let members = batch.into_members();
        for sim in &members {
            assert!((sim.time() - 3.0 * dt).abs() < 1e-21);
        }
    }

    #[test]
    fn mismatched_members_are_rejected() {
        // Different time steps.
        let a = driven_sim(0.0, 1).build().unwrap();
        let mut b = driven_sim(0.0, 1).build().unwrap();
        b.set_time_step(a.time_step() * 0.5).unwrap();
        assert!(BatchedSimulation::new(vec![a, b]).is_err());
        // Different antenna coverage.
        let a = driven_sim(0.0, 1).build().unwrap();
        let mesh = Mesh::new(16, 8, [CELL, CELL, 1e-9]).unwrap();
        let other = Antenna::over_rect(
            &mesh,
            0.0,
            0.0,
            4.0 * CELL,
            8.0 * CELL,
            Vec3::X,
            Drive::logic_cw(3e3, 9e9, 0.0),
        );
        let b = Simulation::builder(mesh, Material::fecob())
            .uniform_magnetization(Vec3::Z)
            .demag(DemagMethod::ThinFilmLocal)
            .absorbing_frame(AbsorbingFrame::new(2, 0.5))
            .antenna(other)
            .build()
            .unwrap();
        assert!(BatchedSimulation::new(vec![a, b]).is_err());
        // Empty batch.
        assert!(BatchedSimulation::new(Vec::new()).is_err());
    }

    #[test]
    fn observer_sees_member_views_with_the_sample_schedule() {
        let sims: Vec<Simulation> = (0..2)
            .map(|_| driven_sim(0.0, 1).build().unwrap())
            .collect();
        let dt = sims[0].time_step();
        let mut batch = BatchedSimulation::new(sims).unwrap();
        let mut calls = 0;
        batch
            .run_sampled(dt * 10.0, dt * 2.0, |_, b| {
                calls += 1;
                // Member views are live during sampling.
                let v = crate::MagRead::at(&b.member(1), 0);
                assert!(v.is_finite());
            })
            .unwrap();
        assert_eq!(calls, 6);
    }
}
