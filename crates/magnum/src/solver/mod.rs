//! Time-integration building blocks for the LLG equation.
//!
//! Three schemes are provided, mirroring the options micromagnetic
//! packages offer, selected by [`IntegratorKind`]:
//!
//! * Heun — 2nd order predictor-corrector; the correct choice when the
//!   thermal field is active (converges to the Stratonovich solution).
//! * RK4 — classic 4th order fixed-step; the default for deterministic
//!   spin-wave runs.
//! * Cash–Karp 5(4) — adaptive pair with error control, for stiff setups
//!   or when the caller wants accuracy-driven step sizes.
//!
//! The steppers themselves live in [`crate::batch`]: one implementation
//! of each scheme, advancing K-interleaved state, with a solo
//! [`crate::Simulation`] as the batch of one. This module holds what they
//! share: the stage axpy and the renormalization that restores `|m| = 1`
//! on magnetic cells after each accepted step (the LLG flow conserves the
//! norm exactly; the projection removes the integrator's truncation-error
//! drift).

use crate::error::MagnumError;
use crate::field3::{Field3Ptr, Field3Read, FieldBatch};
use crate::par::{chunk_bounds, WorkerTeam};

/// `out[i] = a[i] + k[i]·c` over `i0..i1`, one component plane at a time.
///
/// The common stage combination of the fixed-step integrators. Per-plane
/// loops keep each loop at three pointers, within the loop vectorizer's
/// runtime alias-check budget; a single interleaved `Vec3` loop over nine
/// pointers falls back to scalar code. `Vec3` arithmetic is componentwise,
/// so the results are bitwise identical to the fused-per-cell form.
///
/// # Safety
///
/// `i0..i1` must be in bounds for all three buffers, `out` must be owned
/// exclusively by the calling block over that range, and `a`/`k` must not
/// be mutated concurrently there.
#[inline(always)]
pub(crate) unsafe fn axpy_range(
    i0: usize,
    i1: usize,
    out: Field3Ptr,
    a: Field3Read,
    k: Field3Ptr,
    c: f64,
) {
    let (ox, oy, oz) = out.planes();
    let (ax, ay, az) = a.planes();
    let (kx, ky, kz) = k.planes();
    for i in i0..i1 {
        *ox.add(i) = *ax.add(i) + *kx.add(i) * c;
    }
    for i in i0..i1 {
        *oy.add(i) = *ay.add(i) + *ky.add(i) * c;
    }
    for i in i0..i1 {
        *oz.add(i) = *az.add(i) + *kz.add(i) * c;
    }
}

/// Which integrator a [`crate::sim::SimulationBuilder`] should construct.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IntegratorKind {
    /// Heun predictor-corrector (use with thermal noise).
    Heun,
    /// Classic fixed-step RK4 (default).
    #[default]
    RungeKutta4,
    /// Adaptive Cash–Karp 5(4) with the given absolute tolerance on `m`.
    CashKarp45 {
        /// Absolute per-step error tolerance on the unit magnetization.
        tolerance: f64,
    },
}

/// Renormalizes every magnetic cell of every member of a K-interleaved
/// batch to |m| = 1 and reports divergence.
///
/// Runs block-parallel on the system's worker team; per-block results
/// are collected in block order, so the reported error (first bad block)
/// is deterministic for a fixed thread count. The arithmetic per (cell,
/// member) element — finiteness test, norm `sqrt(x²+y²+z²)`,
/// componentwise divide — does not depend on K, and blocks chunk over
/// *cells* (each owning its cells' full K-lanes), so each member's slice
/// is bitwise identical to an independent run at any thread count. Only
/// the state left behind on a `Diverged` error (which aborts the run)
/// can differ within the failing tile.
pub(crate) fn renormalize_and_check_batch(
    m: &mut FieldBatch,
    mask: &[bool],
    full_film: bool,
    t: f64,
    team: &WorkerTeam,
) -> Result<(), MagnumError> {
    let kk = m.k();
    let n = m.cells();
    let nb = team.threads().max(1);
    debug_assert_eq!(full_film, mask.iter().all(|&magnetic| magnetic));
    let out = m.ptrs();
    // The interleaved ranges here are long (cells × K), so the divide-
    // and sqrt-heavy tile body is worth compiling 4-wide where the host
    // supports it; `vdivpd`/`vsqrtpd` are correctly rounded, so results
    // are bitwise identical to the baseline copy.
    #[cfg(target_arch = "x86_64")]
    let use_avx2 = std::arch::is_x86_feature_detected!("avx2");
    let renorm = |i0: usize, i1: usize| {
        #[cfg(target_arch = "x86_64")]
        if use_avx2 {
            // Safety: AVX2 support checked at runtime; range safety is
            // the caller's obligation, as for `renormalize_range`.
            return unsafe { renormalize_range_avx2(out, i0, i1, t) };
        }
        // Safety: as above.
        unsafe { renormalize_range(out, i0, i1, t) }
    };
    let results = team.map_blocks(|b| {
        let (start, end) = chunk_bounds(n, nb, b);
        if full_film {
            // Elementwise over the interleaved planes.
            // Safety: cell chunks are disjoint across blocks, so the
            // interleaved ranges are too, and in bounds for all planes.
            renorm(start * kk, end * kk)
        } else {
            // Magnetic cells come in contiguous runs (the rows of the
            // shape), and a run's K lanes are one contiguous interleaved
            // range — so even the masked arm uses the vectorized tile
            // body, run by run.
            let mut i = start;
            while i < end {
                if !mask[i] {
                    i += 1;
                    continue;
                }
                let run0 = i;
                while i < end && mask[i] {
                    i += 1;
                }
                renorm(run0 * kk, i * kk)?;
            }
            Ok(())
        }
    });
    results.into_iter().collect()
}

/// The tiled renormalization body over a contiguous range: per element
/// `norm = sqrt(x²+y²+z²)`, an acceptance test, then componentwise
/// `/= norm`, restructured so each loop touches few enough pointers to
/// vectorize. Divide and square root are exactly rounded in IEEE 754, so
/// the vectorized tile gives bitwise the per-element result.
///
/// # Safety
///
/// `start..end` must be in bounds for all three planes and owned
/// exclusively by the calling block.
#[inline(always)]
unsafe fn renormalize_range(
    out: Field3Ptr,
    start: usize,
    end: usize,
    t: f64,
) -> Result<(), MagnumError> {
    const TILE: usize = 128;
    let (px, py, pz) = out.planes();
    let mut norms = [0.0f64; TILE];
    let mut i0 = start;
    while i0 < end {
        let i1 = (i0 + TILE).min(end);
        let mut ok = true;
        for i in i0..i1 {
            let (x, y, z) = (*px.add(i), *py.add(i), *pz.add(i));
            let norm = (x * x + y * y + z * z).sqrt();
            norms[i - i0] = norm;
            // Acceptance: all components finite and a nonzero norm. An
            // overflowed (infinite) norm with finite components divides
            // through.
            ok &= x.is_finite() && y.is_finite() && z.is_finite() && norm != 0.0;
        }
        if !ok {
            return Err(MagnumError::Diverged { time: t });
        }
        for i in i0..i1 {
            *px.add(i) /= norms[i - i0];
        }
        for i in i0..i1 {
            *py.add(i) /= norms[i - i0];
        }
        for i in i0..i1 {
            *pz.add(i) /= norms[i - i0];
        }
        i0 = i1;
    }
    Ok(())
}

/// [`renormalize_range`] compiled with AVX2 enabled, for hosts that have
/// it (checked at runtime by the caller).
///
/// # Safety
///
/// As for [`renormalize_range`]; additionally the host must support
/// AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn renormalize_range_avx2(
    out: Field3Ptr,
    start: usize,
    end: usize,
    t: f64,
) -> Result<(), MagnumError> {
    // Safety: forwarded contract.
    unsafe { renormalize_range(out, start, end, t) }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::field::zeeman::Zeeman;
    use crate::llg::{LlgSystem, SystemSpec};
    use crate::math::Vec3;
    use crate::GAMMA;

    /// A single macrospin in a uniform +z field — the one LLG problem with
    /// a closed-form solution, used to validate every integrator.
    pub fn macrospin(alpha: f64, h: f64) -> LlgSystem {
        SystemSpec {
            terms: vec![Box::new(Zeeman::uniform(Vec3::Z * h))],
            antennas: Vec::new(),
            alpha: vec![alpha],
            gamma: GAMMA,
            mask: vec![true],
            nx: 1,
            threads: 1,
        }
        .build()
    }

    /// Analytic macrospin solution starting from m = x̂ at t = 0:
    /// precession at ω = γμ₀H/(1+α²) while the polar angle obeys
    /// tan(θ/2) = tan(θ₀/2)·exp(−αωt).
    pub fn macrospin_analytic(alpha: f64, h: f64, t: f64) -> Vec3 {
        let omega = GAMMA * crate::MU0 * h / (1.0 + alpha * alpha);
        // dm/dt = −γμ₀ m×H: with H ∥ +ẑ and m = x̂ this is +γμ₀H·ŷ, so the
        // azimuth increases with time under this sign convention.
        let phi = omega * t;
        let theta0: f64 = std::f64::consts::FRAC_PI_2;
        let theta = 2.0 * ((theta0 / 2.0).tan() * (-alpha * omega * t).exp()).atan();
        Vec3::new(
            theta.sin() * phi.cos(),
            theta.sin() * phi.sin(),
            theta.cos(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field3::Field3;
    use crate::math::Vec3;

    /// A batch of one holding `v`.
    fn batch_of_one(v: &[Vec3]) -> FieldBatch {
        let mut b = FieldBatch::zeros(v.len(), 1);
        b.load_member(0, v);
        b
    }

    #[test]
    fn renormalize_rejects_nan() {
        let team = WorkerTeam::new(1);
        let mut m = batch_of_one(&[Vec3::new(f64::NAN, 0.0, 0.0)]);
        let err = renormalize_and_check_batch(&mut m, &[true], true, 1e-9, &team);
        assert!(matches!(err, Err(MagnumError::Diverged { .. })));
    }

    #[test]
    fn renormalize_skips_vacuum() {
        let team = WorkerTeam::new(1);
        let mut m = FieldBatch::zeros(1, 1);
        renormalize_and_check_batch(&mut m, &[false], false, 0.0, &team)
            .expect("vacuum zero vector is fine");
        assert_eq!(m.get(0, 0), Vec3::ZERO);
    }

    #[test]
    fn renormalize_is_identical_serial_and_parallel() {
        let n = 137;
        let mask: Vec<bool> = (0..n).map(|i| i % 5 != 0).collect();
        let original: Vec<Vec3> = (0..n)
            .map(|i| {
                if mask[i] {
                    Vec3::new(1.0 + 0.01 * i as f64, -0.3, 0.5 * (i as f64).sin())
                } else {
                    Vec3::ZERO
                }
            })
            .collect();
        let mut serial = batch_of_one(&original);
        renormalize_and_check_batch(&mut serial, &mask, false, 0.0, &WorkerTeam::new(1)).unwrap();
        let mut parallel = batch_of_one(&original);
        renormalize_and_check_batch(&mut parallel, &mask, false, 0.0, &WorkerTeam::new(4)).unwrap();
        assert_eq!(serial, parallel);
        // Per cell the result is the plain `v / |v|` expression.
        for (i, v) in original.iter().enumerate() {
            let want = if mask[i] { *v / v.norm() } else { Vec3::ZERO };
            assert_eq!(serial.get(i, 0), want, "cell {i}");
        }
        let mut wide = FieldBatch::zeros(n, 3);
        for s in 0..3 {
            wide.load_member(s, original.as_slice());
        }
        renormalize_and_check_batch(&mut wide, &mask, false, 0.0, &WorkerTeam::new(4)).unwrap();
        let mut member = Field3::zeros(n);
        wide.store_member(2, &mut member);
        assert_eq!(&member, serial.data(), "K = 3 member differs from K = 1");
    }

    #[test]
    fn default_kind_is_rk4() {
        assert_eq!(IntegratorKind::default(), IntegratorKind::RungeKutta4);
    }
}
