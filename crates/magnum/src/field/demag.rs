//! Demagnetizing (dipolar) field.
//!
//! Two implementations are provided:
//!
//! * [`ThinFilmDemag`] — the local thin-film limit `H_d = −Ms·m_z·ẑ`
//!   (demag tensor N = diag(0, 0, 1)). For the paper's 1 nm film this is
//!   the textbook approximation; it merges with the perpendicular
//!   anisotropy into the effective field that sets the FVMSW dispersion.
//! * [`NewellDemag`] — the full non-local field computed by convolving the
//!   magnetization with the Newell demagnetization tensor via the
//!   crate's own FFT. Exact for the discretization, but O(N log N) per
//!   evaluation; used for validation and ablation studies.
//!
//! ## Real-spectrum convolution pipeline
//!
//! The padded grid is chosen by [`crate::fft::good_size`]: the cheapest
//! 5-smooth length ≥ `2n − 1` per axis (see [`PadPolicy`]), which is
//! exactly the aliasing-free minimum for a linear convolution — every
//! physical displacement `|Δ| ≤ n − 1` has a unique wrapped kernel
//! entry. At awkward grid sizes this cuts the padded area by up to
//! ~2.5× against the old power-of-two padding.
//!
//! The Newell kernels are symmetric in real space — `Kxx/Kyy/Kzz` are
//! even in both offsets, `Kxy` is odd in each but even under full
//! inversion — so their 2-D DFTs are purely real. (At even padded sizes
//! the `Kxy` Nyquist rows `2jx = px` / `2jy = py` are the one exception:
//! they map to themselves under inversion while the function is odd
//! across them. Those kernel entries only ever influence the discarded
//! padding region — every physical output–input displacement satisfies
//! `|Δ| ≤ n−1 < p/2` — so they are zeroed before the transform, making
//! the spectrum exactly real without changing the physical field. Odd
//! padded sizes have no self-paired line, so nothing is zeroed.)
//!
//! Storing the spectra as `Vec<f64>` halves the kernel memory and turns
//! the spectral multiply into real×complex products. Each evaluation then
//! costs four 2-D transforms instead of six: `Ms·mx` and `Ms·my` are
//! packed into one complex grid (re/im channels), convolved per
//! conjugate-pair of bins, and the two output fields come back out of a
//! single inverse transform's re/im channels; `Ms·mz` rides alone through
//! the second pair of transforms (its kernel multiply is a plain real
//! scaling per bin).
//!
//! Every stage — grid load, row/column FFT batches, per-pair spectral
//! multiply, field unload — runs on the caller's [`WorkerTeam`] with
//! per-bin arithmetic independent of the block partition, so results are
//! bitwise identical at any thread count, and identical to the
//! single-threaded fallback used by [`FieldTerm::accumulate`].
//!
//! ## Transposed-spectrum pipeline
//!
//! Each channel's round trip uses [`Fft2Plan::forward_spectrum`] /
//! [`Fft2Plan::inverse_spectrum`]: the forward stops after the column
//! pass, leaving the spectrum in x-major layout (bin `(kx, ky)` at
//! `kx·py + ky`), the kernel spectra are stored in the same layout, and
//! the inverse starts from it — eliminating two full-grid transposes per
//! channel (four of the eight data-movement passes per eval) relative to
//! round-tripping through row-major spectra. A transpose is pure data
//! movement, so every bin sees identical arithmetic and the fields are
//! bitwise unchanged.
//!
//! ## Kernel build
//!
//! Each kernel entry is evaluated at its canonical offset `(|ox|, |oy|)`,
//! so the four mirror entries of a quadrant point are bitwise equal (up
//! to the exact sign of `Kxy`); the build evaluates the quadrant
//! `jx ≤ px/2`, `jy ≤ py/2` only and writes every mirror. Every tensor
//! call has one zero coordinate, across which the 27-point stencil's ±1
//! samples are bitwise equal; each such pair is evaluated once, 18
//! evaluations instead of 27. A geometry's build therefore costs
//! O(P/4 · 18) auxiliary-function evaluations per component instead of
//! O(P·27), and every kernel bit equals the full-grid, 27-sample
//! evaluation's.
//!
//! All FFT and spectral passes sit behind the cells-per-thread clamp
//! ([`crate::fft::MIN_FFT_CELLS_PER_THREAD`], overridable through
//! [`NewellDemag::with_options`]): small padded grids run the whole
//! convolution inline on the calling thread, where rendezvous overhead
//! would otherwise exceed the parallel win. The per-system
//! [`DemagScratch`] arena (padded planes + per-thread FFT row scratch)
//! makes steady-state evaluations allocation-free.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use super::{FieldTerm, FusedTerm};
use crate::fft::{good_size, next_power_of_two, Fft2Plan, Fft2Scratch, MIN_FFT_CELLS_PER_THREAD};
use crate::field3::Field3;
use crate::material::Material;
use crate::math::{Complex64, Vec3};
use crate::mesh::Mesh;
use crate::par::{effective_threads, SendPtr, WorkerTeam};

/// Which demagnetization model a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DemagMethod {
    /// No demagnetizing field at all.
    None,
    /// Local thin-film approximation `H_d = −Ms·m_z·ẑ` (default: correct
    /// limit for films much thinner than their lateral extent).
    #[default]
    ThinFilmLocal,
    /// Full non-local Newell-tensor convolution via FFT.
    NewellFft,
}

/// How [`NewellDemag`] pads each axis for the linear convolution.
///
/// Both policies are aliasing-free; they differ only in which transform
/// lengths they allow. Distinct policies over the same mesh generally
/// produce distinct padded grids, and therefore distinct entries in the
/// process-wide kernel-spectrum cache (the key leads with `(px, py)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PadPolicy {
    /// Cheapest 5-smooth length ≥ `2n − 1` via [`good_size`] — the
    /// mixed-radix default, up to ~2.5× less padded area in 2-D.
    #[default]
    GoodSize,
    /// Smallest power of two ≥ `2n` — the radix-2-only rule, kept as the
    /// baseline for benchmarks and ablation.
    PowerOfTwo,
    /// Exactly `2n − 1`, the aliasing-free minimum with no smoothness
    /// constraint. The padded lengths are always odd and frequently
    /// prime, which forces the Bluestein chirp-z fallback — slower than
    /// [`PadPolicy::GoodSize`], but the only policy that drives the
    /// fallback through real trajectories; used by the parity tests (and
    /// available for memory-starved grids where even `good_size` slack
    /// is unwelcome).
    Exact,
}

impl PadPolicy {
    /// Padded transform length for a physical axis of `n` cells.
    pub fn pad(self, n: usize) -> usize {
        match self {
            PadPolicy::GoodSize => good_size(2 * n - 1),
            PadPolicy::PowerOfTwo => next_power_of_two(2 * n),
            PadPolicy::Exact => 2 * n - 1,
        }
    }
}

/// Local thin-film demagnetizing field (see [`DemagMethod::ThinFilmLocal`]).
#[derive(Debug, Clone)]
pub struct ThinFilmDemag {
    ms: f64,
    mask: Vec<bool>,
}

impl ThinFilmDemag {
    /// Builds the local demag term.
    pub fn new(mesh: &Mesh, material: &Material) -> Self {
        ThinFilmDemag {
            ms: material.saturation_magnetization(),
            mask: mesh.mask().to_vec(),
        }
    }
}

impl FieldTerm for ThinFilmDemag {
    fn name(&self) -> &'static str {
        "demag_thin_film"
    }

    fn accumulate(&self, m: &[Vec3], _t: f64, h: &mut [Vec3]) {
        for (i, (mi, hi)) in m.iter().zip(h.iter_mut()).enumerate() {
            if self.mask[i] {
                hi.z -= self.ms * mi.z;
            }
        }
    }

    fn fused(&self) -> Option<FusedTerm> {
        Some(FusedTerm::ThinFilm { ms: self.ms })
    }
}

/// Non-local demagnetizing field via Newell-tensor FFT convolution
/// (see [`DemagMethod::NewellFft`] and the module docs for the pipeline).
///
/// The real spectral kernels are precomputed once at construction; each
/// field evaluation costs four parallel 2-D FFTs on the zero-padded grid.
pub struct NewellDemag {
    nx: usize,
    ny: usize,
    px: usize,
    py: usize,
    ms: f64,
    mask: Vec<bool>,
    /// Real spectra of K = −N (so that Ĥ = K̂·M̂) in x-major spectrum
    /// layout, shared through the in-process cache; see module docs for
    /// why they are exactly real.
    spectra: Arc<KernelSpectra>,
    plan: Fft2Plan,
    /// Cells-per-thread clamp applied to every convolution pass
    /// (`0` disables it); mirrors the plan's own clamp.
    min_cells_per_thread: usize,
}

/// Working buffers for one convolution, sized to the padded grid — the
/// per-system scratch arena: three padded planes plus the per-thread FFT
/// row scratch, all reused across evaluations so the integrator hot loop
/// never allocates.
struct DemagScratch {
    /// Packed `Ms·mx + i·Ms·my` grid, becomes `hx + i·hy` after the
    /// inverse transform.
    xy: Vec<Complex64>,
    /// `Ms·mz` grid (imaginary channel unused).
    z: Vec<Complex64>,
    /// X-major spectrum plane; the two channels round-trip through it
    /// sequentially, so one plane serves both.
    spec: Vec<Complex64>,
    /// Per-thread 1-D row scratch (Bluestein axes only).
    fft: Fft2Scratch,
}

impl DemagScratch {
    fn new(padded: usize) -> Self {
        // Constructing scratch is itself a hot-path allocation: legal at
        // system build or on the cold `accumulate` path, counted so the
        // allocation-free-stepping test catches any per-eval construction.
        crate::fft::note_hot_alloc();
        DemagScratch {
            xy: vec![Complex64::ZERO; padded],
            z: vec![Complex64::ZERO; padded],
            spec: vec![Complex64::ZERO; padded],
            fft: Fft2Scratch::new(),
        }
    }
}

/// The four real Newell kernel spectra of one padded grid, in the order
/// they are applied (`Kxx`, `Kyy`, `Kzz`, `Kxy`).
///
/// Instances are immutable and shared via [`Arc`] through a process-wide
/// cache, so a batch of simulations over the same geometry (the `swrun`
/// sweep case: many jobs, one mesh) pays the O(P/4 · 18) Newell pre-pass
/// (see the module docs' *Kernel build*) and the four kernel FFTs
/// exactly once.
#[derive(Debug)]
struct KernelSpectra {
    kxx: Vec<f64>,
    kyy: Vec<f64>,
    kzz: Vec<f64>,
    kxy: Vec<f64>,
}

/// Cache key: padded grid dimensions plus the cell size as exact bit
/// patterns. The padded sizes are derived from `(nx, ny)` and `dz` is the
/// film thickness, so the key subsumes the mesh identity
/// `(nx, ny, dx, dy, dz)` — it is strictly more general: meshes that pad
/// to the same grid with the same cell share one kernel table.
type SpectraKey = (usize, usize, u64, u64, u64);

static SPECTRA_CACHE: OnceLock<Mutex<HashMap<SpectraKey, Arc<KernelSpectra>>>> = OnceLock::new();

/// Fetches the real kernel spectra for a padded grid from the process-wide
/// cache, building them on first use.
///
/// The lock is held across the build on purpose: concurrent constructions
/// of the same geometry (parallel batch jobs) block on one build instead
/// of duplicating it. Which worker team performs the build does not matter
/// for the cached values — [`kernel_spectra`] is bitwise identical for any
/// team size.
fn cached_spectra(
    px: usize,
    py: usize,
    cell: [f64; 3],
    plan: &Fft2Plan,
    team: &WorkerTeam,
) -> Arc<KernelSpectra> {
    let [dx, dy, dz] = cell;
    let key = (px, py, dx.to_bits(), dy.to_bits(), dz.to_bits());
    let cache = SPECTRA_CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().expect("demag spectra cache poisoned");
    Arc::clone(
        map.entry(key)
            .or_insert_with(|| Arc::new(real_spectra(px, py, cell, plan, team))),
    )
}

/// Builds the kernel spectra and keeps their real parts, after checking
/// that the imaginary parts are rounding noise.
fn real_spectra(
    px: usize,
    py: usize,
    cell: [f64; 3],
    plan: &Fft2Plan,
    team: &WorkerTeam,
) -> KernelSpectra {
    let spectra = kernel_spectra(px, py, cell, plan, team);
    let mut max_re: f64 = 0.0;
    let mut max_im: f64 = 0.0;
    for k in &spectra {
        for z in k.iter() {
            max_re = max_re.max(z.re.abs());
            max_im = max_im.max(z.im.abs());
        }
    }
    assert!(
        max_im <= 1e-10 * max_re,
        "Newell spectra should be real: max |Im| = {max_im:e} vs max |Re| = {max_re:e}"
    );
    let [kxx, kyy, kzz, kxy] = spectra.map(|k| k.iter().map(|z| z.re).collect());
    KernelSpectra { kxx, kyy, kzz, kxy }
}

impl NewellDemag {
    /// Precomputes the demag kernel for the mesh (single layer), serially.
    ///
    /// Construction cost is O(P/4 · 18) auxiliary-function evaluations per
    /// tensor component for P padded cells (one quadrant, mirror-equal
    /// stencil samples shared), plus four kernel FFTs; this is done once
    /// per geometry and process. [`NewellDemag::new_with_team`]
    /// spreads the pre-pass over a worker team.
    pub fn new(mesh: &Mesh, material: &Material) -> Self {
        Self::new_with_team(mesh, material, &WorkerTeam::new(1))
    }

    /// Precomputes the demag kernel with the Newell pre-pass and the
    /// kernel FFTs batched across `team`. Bitwise identical to
    /// [`NewellDemag::new`] for any team size.
    ///
    /// The kernel spectra are looked up in a process-wide cache keyed by
    /// the padded grid and cell size, so repeated constructions over the
    /// same geometry (batch sweeps) share one table; only the FFT plan and
    /// scratch buffers are per-instance.
    pub fn new_with_team(mesh: &Mesh, material: &Material, team: &WorkerTeam) -> Self {
        Self::with_padding(mesh, material, team, PadPolicy::default())
    }

    /// Like [`NewellDemag::new_with_team`], with an explicit padding
    /// policy. [`PadPolicy::PowerOfTwo`] reproduces the radix-2-only
    /// padded grids — the baseline the `--bigfft` bench measures the
    /// mixed-radix speedup against.
    pub fn with_padding(
        mesh: &Mesh,
        material: &Material,
        team: &WorkerTeam,
        policy: PadPolicy,
    ) -> Self {
        Self::with_options(mesh, material, team, policy, None)
    }

    /// Fully explicit constructor: padding policy plus the
    /// cells-per-thread clamp for the convolution passes. `None` takes
    /// the [`MIN_FFT_CELLS_PER_THREAD`] default; `Some(0)` disables the
    /// clamp (every pass fans out — what cross-thread parity tests
    /// want); other values set the threshold directly.
    pub fn with_options(
        mesh: &Mesh,
        material: &Material,
        team: &WorkerTeam,
        policy: PadPolicy,
        min_cells_per_thread: Option<usize>,
    ) -> Self {
        let nx = mesh.nx();
        let ny = mesh.ny();
        let px = policy.pad(nx);
        let py = policy.pad(ny);
        let min = min_cells_per_thread.unwrap_or(MIN_FFT_CELLS_PER_THREAD);
        let plan = Fft2Plan::new(px, py).with_min_cells_per_thread(min);
        let spectra = cached_spectra(px, py, mesh.cell_size(), &plan, team);
        NewellDemag {
            nx,
            ny,
            px,
            py,
            ms: material.saturation_magnetization(),
            mask: mesh.mask().to_vec(),
            spectra,
            plan,
            min_cells_per_thread: min,
        }
    }

    /// Worker blocks a convolution pass touching `cells` may fan out to
    /// under the clamp.
    fn pass_blocks(&self, cells: usize, team: &WorkerTeam) -> usize {
        effective_threads(team.threads(), cells, self.min_cells_per_thread)
    }

    /// Padded transform dimensions `(px, py)` this instance convolves on.
    pub fn padded_dims(&self) -> (usize, usize) {
        (self.px, self.py)
    }

    /// Self-demagnetization factors `(Nxx, Nyy, Nzz)` of a single cell —
    /// they must sum to 1.
    pub fn self_factors(dx: f64, dy: f64, dz: f64) -> (f64, f64, f64) {
        (
            newell_nxx(0.0, 0.0, 0.0, dx, dy, dz),
            newell_nxx(0.0, 0.0, 0.0, dy, dx, dz),
            newell_nxx(0.0, 0.0, 0.0, dz, dy, dx),
        )
    }

    /// Runs one convolution on AoS buffers: load `Ms·m` into the padded
    /// grids, transform, multiply by the real kernel spectra, transform
    /// back, add the field into `h`. Per-bin arithmetic is independent of
    /// the team partition.
    fn convolve(&self, m: &[Vec3], h: &mut [Vec3], team: &WorkerTeam, s: &mut DemagScratch) {
        let (nx, ny, px) = (self.nx, self.ny, self.px);
        let ms = self.ms;
        let mask = &self.mask;
        // Zero-fill and load in one parallel pass over padded rows.
        {
            let xy = SendPtr::new(s.xy.as_mut_ptr());
            let z = SendPtr::new(s.z.as_mut_ptr());
            let nb = self.pass_blocks(px * self.py, team);
            team.for_each_span_capped(self.py, nb, |r0, r1| {
                for iy in r0..r1 {
                    let row = iy * px;
                    for jx in 0..px {
                        // Safety: padded rows are disjoint across spans.
                        unsafe {
                            *xy.add(row + jx) = Complex64::ZERO;
                            *z.add(row + jx) = Complex64::ZERO;
                        }
                    }
                    if iy >= ny {
                        continue;
                    }
                    for ix in 0..nx {
                        let i = iy * nx + ix;
                        if !mask[i] {
                            continue;
                        }
                        unsafe {
                            *xy.add(row + ix) = Complex64::new(ms * m[i].x, ms * m[i].y);
                            *z.add(row + ix) = Complex64::new(ms * m[i].z, 0.0);
                        }
                    }
                }
            });
        }
        self.transform_multiply(s, team);
        // Unload: hx/hy come out of the packed grid's re/im channels.
        {
            let xy = &s.xy;
            let z = &s.z;
            let out = SendPtr::new(h.as_mut_ptr());
            let nb = self.pass_blocks(nx * ny, team);
            team.for_each_span_capped(ny, nb, |r0, r1| {
                for iy in r0..r1 {
                    for ix in 0..nx {
                        let i = iy * nx + ix;
                        if !mask[i] {
                            continue;
                        }
                        let p = iy * px + ix;
                        // Safety: mesh rows are disjoint across spans.
                        unsafe {
                            *out.add(i) += Vec3::new(xy[p].re, xy[p].im, z[p].re);
                        }
                    }
                }
            });
        }
    }

    /// SoA variant of [`NewellDemag::convolve`]: the load pass packs the
    /// padded grids straight from the `mx`/`my`/`mz` planes (no gather
    /// into `Vec3`s), and the unload streams the inverse transform back
    /// into the field planes. The per-cell arithmetic — and therefore the
    /// result, bitwise — is identical to the AoS path: the layouts differ
    /// only by a permutation of the same `f64` values.
    fn convolve_planes(&self, m: &Field3, h: &mut Field3, team: &WorkerTeam, s: &mut DemagScratch) {
        let (nx, ny, px) = (self.nx, self.ny, self.px);
        let ms = self.ms;
        let mask = &self.mask;
        let (mx, my, mz) = (m.xs(), m.ys(), m.zs());
        {
            let xy = SendPtr::new(s.xy.as_mut_ptr());
            let z = SendPtr::new(s.z.as_mut_ptr());
            let nb = self.pass_blocks(px * self.py, team);
            team.for_each_span_capped(self.py, nb, |r0, r1| {
                for iy in r0..r1 {
                    let row = iy * px;
                    for jx in 0..px {
                        // Safety: padded rows are disjoint across spans.
                        unsafe {
                            *xy.add(row + jx) = Complex64::ZERO;
                            *z.add(row + jx) = Complex64::ZERO;
                        }
                    }
                    if iy >= ny {
                        continue;
                    }
                    for ix in 0..nx {
                        let i = iy * nx + ix;
                        if !mask[i] {
                            continue;
                        }
                        unsafe {
                            *xy.add(row + ix) = Complex64::new(ms * mx[i], ms * my[i]);
                            *z.add(row + ix) = Complex64::new(ms * mz[i], 0.0);
                        }
                    }
                }
            });
        }
        self.transform_multiply(s, team);
        {
            let xy = &s.xy;
            let z = &s.z;
            let out = h.ptrs();
            let nb = self.pass_blocks(nx * ny, team);
            team.for_each_span_capped(ny, nb, |r0, r1| {
                for iy in r0..r1 {
                    for ix in 0..nx {
                        let i = iy * nx + ix;
                        if !mask[i] {
                            continue;
                        }
                        let p = iy * px + ix;
                        // Safety: mesh rows are disjoint across spans.
                        unsafe {
                            let hv = out.read(i);
                            out.write(i, hv + Vec3::new(xy[p].re, xy[p].im, z[p].re));
                        }
                    }
                }
            });
        }
    }

    /// The layout-independent middle of a convolution: each channel runs
    /// forward to the x-major spectrum (skipping the all-zero rows
    /// `ny..py`), multiplies by its kernel there, and comes back through
    /// the truncated inverse (materializing only the rows the unload
    /// reads). The channels are independent, so routing both through the
    /// single `spec` plane sequentially changes no arithmetic — it
    /// trades a third padded plane for nothing.
    fn transform_multiply(&self, s: &mut DemagScratch, team: &WorkerTeam) {
        let ny = self.ny;
        s.fft.ensure(&self.plan, team.threads());
        self.plan
            .forward_spectrum(&mut s.z, &mut s.spec, team, &mut s.fft, ny);
        self.scale_z_spectrum(&mut s.spec, team);
        self.plan
            .inverse_spectrum(&mut s.spec, &mut s.z, team, &mut s.fft, ny);
        self.plan
            .forward_spectrum(&mut s.xy, &mut s.spec, team, &mut s.fft, ny);
        self.multiply_xy_spectrum(&mut s.spec, team);
        self.plan
            .inverse_spectrum(&mut s.spec, &mut s.xy, team, &mut s.fft, ny);
    }

    /// Applies Ĥz = K̂zz·M̂z in place: a plain real scaling per bin,
    /// independent of bin order — the kernel is stored in the same
    /// x-major layout as the spectrum.
    fn scale_z_spectrum(&self, z: &mut [Complex64], team: &WorkerTeam) {
        let kzz = &self.spectra.kzz;
        let zp = SendPtr::new(z.as_mut_ptr());
        let nb = self.pass_blocks(self.px * self.py, team);
        team.for_each_span_capped(self.px * self.py, nb, |i0, i1| {
            for (i, &k) in kzz.iter().enumerate().take(i1).skip(i0) {
                // Safety: bin ranges are disjoint across spans.
                unsafe { *zp.add(i) = (*zp.add(i)).scale(k) };
            }
        });
    }

    /// Applies the in-plane kernel block to the packed `xy` spectrum in
    /// place. Each conjugate pair `(k, −k)` holds enough information to
    /// unpack the two real spectra `M̂x/M̂y`, multiply by the (real)
    /// kernels at both bins, and repack `Ĥx + i·Ĥy`. In the x-major
    /// layout pairs are grouped by *line*: each parallel task owns the
    /// disjoint line set `{kx, (px−kx) mod px}` (contiguous memory).
    ///
    /// The first/second argument roles passed to `multiply_pair` follow
    /// the ky-major order of the original row-major pipeline — the two
    /// computations differ only by conjugation, which is not bitwise
    /// neutral at signed zeros, so preserving the roles keeps the fields
    /// (and the pinned golden trajectories) bit-for-bit unchanged.
    fn multiply_xy_spectrum(&self, xy: &mut [Complex64], team: &WorkerTeam) {
        let (px, py) = (self.px, self.py);
        let xyp = SendPtr::new(xy.as_mut_ptr());
        let nb = self.pass_blocks(px * py, team);
        team.for_each_span_capped(px / 2 + 1, nb, |t0, t1| {
            for kx in t0..t1 {
                let kx2 = (px - kx) % px;
                if kx2 != kx {
                    // Every pair has exactly one bin on line kx; iterating
                    // ky over the full line covers both lines exactly once.
                    for ky in 0..py {
                        let b = kx * py + ky;
                        let p = kx2 * py + (py - ky) % py;
                        // Row-major order visited self-paired ky rows by
                        // ascending kx and other rows by ascending ky, so
                        // the bin with 2·kx ≤ px (true for all of line kx
                        // here) resp. 2·ky < py came first.
                        let b_first = ky == 0 || 2 * ky <= py;
                        // Safety: this task owns lines kx and kx2.
                        unsafe {
                            if b_first {
                                self.multiply_pair(xyp, b, p);
                            } else {
                                self.multiply_pair(xyp, p, b);
                            }
                        }
                    }
                } else {
                    // Self-inverse line (kx = 0 or px/2): pairs live within
                    // the line; the half-range covers it without repeats,
                    // and the ky ≤ py/2 bin is the row-major-first one.
                    for ky in 0..=py / 2 {
                        let b = kx * py + ky;
                        let p = kx * py + (py - ky) % py;
                        // Safety: this task owns line kx.
                        unsafe { self.multiply_pair(xyp, b, p) };
                    }
                }
            }
        });
    }

    /// Processes one conjugate pair of packed-spectrum bins (writing only
    /// `i1` when the bin is its own partner).
    ///
    /// With `Z = M̂x + i·M̂y` and real fields, `M̂x(k) = (Z(k) + Z̄(−k))/2`
    /// and `M̂y(k) = −i·(Z(k) − Z̄(−k))/2`; at `−k` both spectra are the
    /// conjugates. After the kernel multiply the result is repacked as
    /// `Ĥx + i·Ĥy`, whose inverse transform carries `hx`/`hy` in its
    /// re/im channels.
    ///
    /// # Safety
    ///
    /// `i1`/`i2` must be in bounds and owned exclusively by the caller.
    unsafe fn multiply_pair(&self, xyp: SendPtr<Complex64>, i1: usize, i2: usize) {
        let k = &*self.spectra;
        let z1 = *xyp.add(i1);
        let z2 = *xyp.add(i2);
        let mx = Complex64::new(0.5 * (z1.re + z2.re), 0.5 * (z1.im - z2.im));
        let my = Complex64::new(0.5 * (z1.im + z2.im), 0.5 * (z2.re - z1.re));
        let hx = mx.scale(k.kxx[i1]) + my.scale(k.kxy[i1]);
        let hy = mx.scale(k.kxy[i1]) + my.scale(k.kyy[i1]);
        *xyp.add(i1) = Complex64::new(hx.re - hy.im, hx.im + hy.re);
        if i2 != i1 {
            let mxc = mx.conj();
            let myc = my.conj();
            let hx = mxc.scale(k.kxx[i2]) + myc.scale(k.kxy[i2]);
            let hy = mxc.scale(k.kxy[i2]) + myc.scale(k.kyy[i2]);
            *xyp.add(i2) = Complex64::new(hx.re - hy.im, hx.im + hy.re);
        }
    }
}

/// Builds the four Newell kernel spectra (still complex, for
/// introspection): real-space K = −N over the padded grid with wrap
/// offsets, `Kxy` Nyquist lines zeroed (see module docs), then the
/// forward 2-D transform of each, returned in the **x-major spectrum
/// layout** of [`Fft2Plan::forward_spectrum`] (bin `(kx, ky)` at
/// `kx·py + ky`) so the spectral multiply indexes kernels and spectrum
/// identically. Order: `[Kxx, Kyy, Kzz, Kxy]`.
fn kernel_spectra(
    px: usize,
    py: usize,
    cell: [f64; 3],
    plan: &Fft2Plan,
    team: &WorkerTeam,
) -> [Vec<Complex64>; 4] {
    let mut kernels = kernel_planes(px, py, cell, team);
    let mut spec = vec![Complex64::ZERO; px * py];
    let mut rs = Fft2Scratch::new();
    for k in kernels.iter_mut() {
        // All py rows carry kernel data (no zero padding to skip); the
        // spectrum lands in `spec`, which then swaps into the slot.
        plan.forward_spectrum(k, &mut spec, team, &mut rs, py);
        std::mem::swap(k, &mut spec);
    }
    kernels
}

/// The real-space kernel planes K = −N over the padded grid (row-major,
/// wrap offsets, `Kxy` Nyquist lines zeroed). Order: `[Kxx, Kyy, Kzz, Kxy]`.
///
/// Each entry is evaluated at its canonical offset `(|ox|, |oy|)`, so the
/// up-to-four mirror entries `{jx, px−jx} × {jy, py−jy}` of a quadrant
/// point are bitwise equal (`Kxy` up to the exact sign flip): the loop
/// visits only the quadrant `jx ≤ px/2`, `jy ≤ py/2`, evaluates there once
/// and writes every mirror — a quarter of the Newell evaluations of a
/// full-grid pass, with the same bits. The per-axis symmetry must be
/// exact, not just to rounding, for the spectra to be purely real.
fn kernel_planes(
    px: usize,
    py: usize,
    [dx, dy, dz]: [f64; 3],
    team: &WorkerTeam,
) -> [Vec<Complex64>; 4] {
    let mut kernels: [Vec<Complex64>; 4] = std::array::from_fn(|_| vec![Complex64::ZERO; px * py]);
    {
        let ptrs: [SendPtr<Complex64>; 4] =
            std::array::from_fn(|i| SendPtr::new(kernels[i].as_mut_ptr()));
        team.for_each_span(py / 2 + 1, |r0, r1| {
            for jy in r0..r1 {
                let y = jy as f64 * dy;
                // Wrap offsets: the mirror index p − j stands for the
                // negative displacement −j.
                let rows = [(1.0, jy), (-1.0, (py - jy) % py)];
                for jx in 0..=px / 2 {
                    let x = jx as f64 * dx;
                    let cols = [(1.0, jx), (-1.0, (px - jx) % px)];
                    // K = −N so that the convolution yields H directly.
                    let kxx = -newell_nxx(x, y, 0.0, dx, dy, dz);
                    let kyy = -newell_nxx(y, x, 0.0, dy, dx, dz);
                    let kzz = -newell_nxx(0.0, y, x, dz, dy, dx);
                    // Kxy is odd per axis: it vanishes identically on the
                    // axes, and at even padded sizes the Nyquist lines
                    // 2j = p (odd across a self-inverse coordinate, never
                    // reaching the physical output region) are zeroed to
                    // keep the spectrum exactly real. `2j == p` rather
                    // than `j == p/2`: at odd sizes the rounded half-index
                    // is an ordinary mirrored column and must keep its
                    // kernel value. The zero is a literal +0.0 on every
                    // mirror — a sign-flipped −0.0 would change bits.
                    let nxy = (jx != 0 && jy != 0 && 2 * jx != px && 2 * jy != py)
                        .then(|| newell_nxy(x, y, 0.0, dx, dy, dz));
                    for &(sy, iy) in &rows {
                        for &(sx, ix) in &cols {
                            let kxy = nxy.map_or(0.0, |n| -(sx * sy) * n);
                            let idx = iy * px + ix;
                            for (p, v) in ptrs.iter().zip([kxx, kyy, kzz, kxy]) {
                                // Safety: a quadrant row and its mirror
                                // py − jy belong to the span owning jy — no
                                // other quadrant row mirrors onto either.
                                unsafe { *p.add(idx) = Complex64::new(v, 0.0) };
                            }
                        }
                    }
                }
            }
        });
    }
    kernels
}

impl std::fmt::Debug for NewellDemag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NewellDemag")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("padded", &(self.px, self.py))
            .field("ms", &self.ms)
            .finish()
    }
}

impl FieldTerm for NewellDemag {
    fn name(&self) -> &'static str {
        "demag_newell_fft"
    }

    fn accumulate(&self, m: &[Vec3], _t: f64, h: &mut [Vec3]) {
        // Cold reference path (tests, effective_field probes): allocate
        // per call instead of sharing a locked buffer — keeps the term
        // free of interior mutability. Energy accounting goes through
        // `accumulate_par` with the system-owned scratch instead.
        let mut scratch = DemagScratch::new(self.px * self.py);
        self.convolve(m, h, &WorkerTeam::new(1), &mut scratch);
    }

    fn make_scratch(&self) -> Option<Box<dyn Any + Send + Sync>> {
        Some(Box::new(DemagScratch::new(self.px * self.py)))
    }

    fn accumulate_par(
        &self,
        m: &Field3,
        _t: f64,
        h: &mut Field3,
        team: &WorkerTeam,
        scratch: Option<&mut (dyn Any + Send + Sync)>,
    ) {
        match scratch.and_then(|s| s.downcast_mut::<DemagScratch>()) {
            Some(s) => self.convolve_planes(m, h, team, s),
            None => {
                // No caller-provided scratch: allocate one for this call
                // but stay on the planar path — no AoS round trip. Hot
                // paths always pass the system-owned scratch.
                let mut s = DemagScratch::new(self.px * self.py);
                self.convolve_planes(m, h, team, &mut s);
            }
        }
    }
}

/// Newell `f` auxiliary function (even in every argument).
fn newell_f(x: f64, y: f64, z: f64) -> f64 {
    let (x, y, z) = (x.abs(), y.abs(), z.abs());
    let r = (x * x + y * y + z * z).sqrt();
    let mut acc = 0.0;
    // (y/2)(z²−x²)·asinh(y/√(x²+z²))
    let dxz = (x * x + z * z).sqrt();
    if dxz > 0.0 && y != 0.0 {
        acc += 0.5 * y * (z * z - x * x) * (y / dxz).asinh();
    }
    // (z/2)(y²−x²)·asinh(z/√(x²+y²))
    let dxy = (x * x + y * y).sqrt();
    if dxy > 0.0 && z != 0.0 {
        acc += 0.5 * z * (y * y - x * x) * (z / dxy).asinh();
    }
    // −xyz·atan(yz/(xR))
    if x != 0.0 && r > 0.0 && y != 0.0 && z != 0.0 {
        acc -= x * y * z * (y * z / (x * r)).atan();
    }
    // (1/6)(2x²−y²−z²)·R
    acc += (2.0 * x * x - y * y - z * z) * r / 6.0;
    acc
}

/// Newell `g` auxiliary function (odd in x and y, even in z).
fn newell_g(x: f64, y: f64, z: f64) -> f64 {
    let zs = z.abs();
    let r = (x * x + y * y + zs * zs).sqrt();
    let mut acc = 0.0;
    let dxy = (x * x + y * y).sqrt();
    if dxy > 0.0 && zs != 0.0 {
        acc += x * y * zs * (zs / dxy).asinh();
    }
    let dyz = (y * y + zs * zs).sqrt();
    if dyz > 0.0 && x != 0.0 {
        acc += y / 6.0 * (3.0 * zs * zs - y * y) * (x / dyz).asinh();
    }
    let dxz = (x * x + zs * zs).sqrt();
    if dxz > 0.0 && y != 0.0 {
        acc += x / 6.0 * (3.0 * zs * zs - x * x) * (y / dxz).asinh();
    }
    if zs != 0.0 && r > 0.0 && x != 0.0 && y != 0.0 {
        acc -= zs * zs * zs / 6.0 * (x * y / (zs * r)).atan();
    }
    if y != 0.0 && r > 0.0 && x != 0.0 && zs != 0.0 {
        acc -= zs * y * y / 2.0 * (x * zs / (y * r)).atan();
    }
    if x != 0.0 && r > 0.0 && y != 0.0 && zs != 0.0 {
        acc -= zs * x * x / 2.0 * (y * zs / (x * r)).atan();
    }
    acc -= x * y * r / 3.0;
    acc
}

/// Applies the 27-point second-difference stencil to an auxiliary function.
///
/// `even[a]` says `func` is even in argument `a` (it only ever sees its
/// absolute value). On such an axis a zero coordinate makes the −1 and +1
/// samples bitwise equal, so the +1 sample reuses the −1 one — 18 of 27
/// evaluations at one zero axis, the case of every kernel entry. The
/// weighted sum still runs over all 27 samples in the original order, so
/// the result is bitwise that of evaluating each sample.
fn newell_stencil<F: Fn(f64, f64, f64) -> f64>(
    [x, y, z]: [f64; 3],
    [dx, dy, dz]: [f64; 3],
    even: [bool; 3],
    func: F,
) -> f64 {
    const W: [(isize, f64); 3] = [(-1, -1.0), (0, 2.0), (1, -1.0)];
    let fold = [
        even[0] && x == 0.0,
        even[1] && y == 0.0,
        even[2] && z == 0.0,
    ];
    // Sample (u, v, w) sits at 9·a + 3·b + c for positions a, b, c in W;
    // a folded axis reads its +1 sample (position 2) from position 0.
    let src = |pos: usize, folded: bool| if folded && pos == 2 { 0 } else { pos };
    let mut samples = [0.0; 27];
    let mut acc = 0.0;
    for (a, &(u, wu)) in W.iter().enumerate() {
        for (b, &(v, wv)) in W.iter().enumerate() {
            for (c, &(w, ww)) in W.iter().enumerate() {
                let i = 9 * a + 3 * b + c;
                let s = 9 * src(a, fold[0]) + 3 * src(b, fold[1]) + src(c, fold[2]);
                if s == i {
                    samples[i] = func(x + u as f64 * dx, y + v as f64 * dy, z + w as f64 * dz);
                }
                acc += wu * wv * ww * samples[s];
            }
        }
    }
    acc
}

/// Demag tensor component `Nxx` between two cells displaced by `(x, y, z)`.
///
/// `Nxx` is even in every displacement component. Evaluating the stencil
/// at the canonical absolute offsets makes that symmetry hold **bitwise**:
/// the summation order — and with it the cancellation noise of the
/// second-difference stencil, which grows with distance — is identical at
/// `±x`, so kernel tables built from signed and from absolute offsets
/// agree exactly.
pub fn newell_nxx(x: f64, y: f64, z: f64, dx: f64, dy: f64, dz: f64) -> f64 {
    let (x, y, z) = (x.abs(), y.abs(), z.abs());
    newell_stencil([x, y, z], [dx, dy, dz], [true; 3], newell_f)
        / (4.0 * std::f64::consts::PI * dx * dy * dz)
}

/// Demag tensor component `Nxy` between two cells displaced by `(x, y, z)`.
///
/// `Nxy` is odd in `x` and `y` and even in `z`; the stencil runs on the
/// canonical absolute offsets with the sign restored afterwards, so the
/// antisymmetry is bitwise exact and the component vanishes identically
/// on the coordinate planes (where the raw stencil would only cancel to
/// rounding noise).
pub fn newell_nxy(x: f64, y: f64, z: f64, dx: f64, dy: f64, dz: f64) -> f64 {
    if x == 0.0 || y == 0.0 {
        return 0.0;
    }
    let sign = x.signum() * y.signum();
    // Only the z argument of `newell_g` is even; x and y keep their signs.
    let even = [false, false, true];
    sign * newell_stencil([x.abs(), y.abs(), z.abs()], [dx, dy, dz], even, newell_g)
        / (4.0 * std::f64::consts::PI * dx * dy * dz)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_self_factors_are_one_third() {
        let (nxx, nyy, nzz) = NewellDemag::self_factors(1e-9, 1e-9, 1e-9);
        assert!((nxx - 1.0 / 3.0).abs() < 1e-9, "Nxx = {nxx}");
        assert!((nyy - 1.0 / 3.0).abs() < 1e-9);
        assert!((nzz - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn self_factors_sum_to_one_for_any_aspect() {
        for (dx, dy, dz) in [
            (1e-9, 1e-9, 1e-9),
            (5e-9, 5e-9, 1e-9),
            (2e-9, 8e-9, 1e-9),
            (10e-9, 3e-9, 0.5e-9),
        ] {
            let (nxx, nyy, nzz) = NewellDemag::self_factors(dx, dy, dz);
            assert!(
                (nxx + nyy + nzz - 1.0).abs() < 1e-8,
                "trace violated for ({dx}, {dy}, {dz}): {}",
                nxx + nyy + nzz
            );
        }
    }

    #[test]
    fn flat_cell_is_dominated_by_nzz() {
        let (nxx, nyy, nzz) = NewellDemag::self_factors(10e-9, 10e-9, 1e-9);
        assert!(nzz > 0.8, "flat cell Nzz = {nzz}");
        assert!(nxx < 0.1 && nyy < 0.1);
        assert!((nxx - nyy).abs() < 1e-12, "square cell must be symmetric");
    }

    #[test]
    fn nxy_vanishes_on_axes() {
        // Nxy is odd in x and y: it must vanish when either offset is 0.
        assert!(newell_nxy(0.0, 0.0, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
        assert!(newell_nxy(2e-9, 0.0, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
        assert!(newell_nxy(0.0, 2e-9, 0.0, 1e-9, 1e-9, 1e-9).abs() < 1e-12);
    }

    #[test]
    fn nxy_is_odd_under_axis_flip() {
        let a = newell_nxy(2e-9, 3e-9, 0.0, 1e-9, 1e-9, 1e-9);
        let b = newell_nxy(-2e-9, 3e-9, 0.0, 1e-9, 1e-9, 1e-9);
        assert!((a + b).abs() < 1e-15);
        assert!(a.abs() > 0.0, "off-axis Nxy should be non-zero");
    }

    fn film_setup(nx: usize, ny: usize) -> (Mesh, Material) {
        let mesh = Mesh::new(nx, ny, [5e-9, 5e-9, 1e-9]).unwrap();
        (mesh, Material::fecob())
    }

    #[test]
    fn spectral_kernels_have_vanishing_imaginary_parts() {
        // The real-storage conversion relies on the four spectra being
        // exactly real (up to FFT rounding). Check on a non-square grid so
        // both Nyquist lines are exercised.
        let (mesh, _) = film_setup(12, 5);
        let px = next_power_of_two(2 * mesh.nx());
        let py = next_power_of_two(2 * mesh.ny());
        let plan = Fft2Plan::new(px, py);
        let spectra = kernel_spectra(px, py, mesh.cell_size(), &plan, &WorkerTeam::new(1));
        for (name, k) in ["Kxx", "Kyy", "Kzz", "Kxy"].iter().zip(&spectra) {
            let max_re = k.iter().map(|z| z.re.abs()).fold(0.0, f64::max);
            let max_im = k.iter().map(|z| z.im.abs()).fold(0.0, f64::max);
            assert!(
                max_im <= 1e-12 * max_re,
                "{name} spectrum is not real: max |Im| = {max_im:e}, max |Re| = {max_re:e}"
            );
        }
    }

    #[test]
    fn parallel_kernel_build_is_bitwise_identical() {
        // The cache hands every construction the spectra built first, so
        // team-invariance of the build is checked on `kernel_spectra`
        // directly — through `NewellDemag::new_with_team` the comparison
        // would be vacuous.
        let (mesh, _) = film_setup(9, 6);
        let px = next_power_of_two(2 * mesh.nx());
        let py = next_power_of_two(2 * mesh.ny());
        let plan = Fft2Plan::new(px, py);
        let serial = kernel_spectra(px, py, mesh.cell_size(), &plan, &WorkerTeam::new(1));
        for threads in [2, 4, 7] {
            let team = WorkerTeam::new(threads);
            let par = kernel_spectra(px, py, mesh.cell_size(), &plan, &team);
            for (name, (s, p)) in ["Kxx", "Kyy", "Kzz", "Kxy"]
                .iter()
                .zip(serial.iter().zip(&par))
            {
                assert_eq!(s, p, "{name} diverged at {threads} threads");
            }
        }
    }

    /// FNV-1a over the bit patterns of the four real spectra.
    fn spectra_hash(k: &KernelSpectra) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in [&k.kxx, &k.kyy, &k.kzz, &k.kxy].into_iter().flatten() {
            for byte in v.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn kernel_spectra_bits_are_pinned() {
        // Hashes of the four real spectra as the unfolded 27-sample build
        // produced them: the folded build must reproduce every bit, on an
        // even×odd good-size grid with dx ≠ dy, an odd Bluestein grid and
        // a power-of-two grid.
        let cases = [
            (
                10,
                7,
                [5e-9, 3e-9, 1e-9],
                PadPolicy::GoodSize,
                (20, 15),
                0x16ca_0e35_4e40_cf7d,
            ),
            (
                6,
                4,
                [5e-9, 5e-9, 1e-9],
                PadPolicy::Exact,
                (11, 7),
                0x2d16_923e_b100_2181,
            ),
            (
                9,
                6,
                [4e-9, 5e-9, 1e-9],
                PadPolicy::PowerOfTwo,
                (32, 16),
                0xe8d3_7cb4_4385_20b1,
            ),
        ];
        for (nx, ny, cell, policy, dims, want) in cases {
            let (px, py) = (policy.pad(nx), policy.pad(ny));
            assert_eq!((px, py), dims);
            let plan = Fft2Plan::new(px, py);
            for threads in [1, 3] {
                let k = real_spectra(px, py, cell, &plan, &WorkerTeam::new(threads));
                let got = spectra_hash(&k);
                assert_eq!(
                    got, want,
                    "{policy:?} {px}x{py} spectra hash {got:#018x} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn folded_planes_match_full_grid_newell_evaluation() {
        // Every padded entry, mirrors included, must carry exactly the bits
        // of the public tensor functions at the signed wrap offset; `Kxy`
        // takes its sign from the quadrant and is +0.0 on the axes and on
        // even-size Nyquist lines.
        let cell = [5e-9, 3e-9, 1e-9];
        let [dx, dy, dz] = cell;
        for (px, py) in [(12, 9), (9, 10), (7, 5), (8, 6)] {
            let wrap = |j: usize, p: usize| {
                if j <= p / 2 {
                    j as f64
                } else {
                    j as f64 - p as f64
                }
            };
            for threads in [1, 3] {
                let planes = kernel_planes(px, py, cell, &WorkerTeam::new(threads));
                for jy in 0..py {
                    for jx in 0..px {
                        let (x, y) = (wrap(jx, px) * dx, wrap(jy, py) * dy);
                        let kxy = if 2 * jx == px || 2 * jy == py || x == 0.0 || y == 0.0 {
                            0.0
                        } else {
                            -newell_nxy(x, y, 0.0, dx, dy, dz)
                        };
                        let want = [
                            -newell_nxx(x, y, 0.0, dx, dy, dz),
                            -newell_nxx(y, x, 0.0, dy, dx, dz),
                            -newell_nxx(0.0, y, x, dz, dy, dx),
                            kxy,
                        ];
                        for (c, (plane, w)) in planes.iter().zip(want).enumerate() {
                            let got = plane[jy * px + jx];
                            assert_eq!(
                                (got.re.to_bits(), got.im.to_bits()),
                                (w.to_bits(), 0),
                                "component {c} at ({jx},{jy}) of {px}x{py}, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn spectra_are_shared_through_the_cache() {
        let (mesh, mat) = film_setup(10, 4);
        let a = NewellDemag::new(&mesh, &mat);
        let b = NewellDemag::new_with_team(&mesh, &mat, &WorkerTeam::new(3));
        assert!(
            Arc::ptr_eq(&a.spectra, &b.spectra),
            "same geometry must share one kernel table"
        );
        // A different padded grid gets its own entry.
        let (other, _) = film_setup(20, 4);
        let c = NewellDemag::new(&other, &mat);
        assert!(!Arc::ptr_eq(&a.spectra, &c.spectra));
    }

    #[test]
    fn padding_policies_use_distinct_cache_entries_and_agree() {
        // Same mesh, two padding policies: the padded grids differ
        // (40×8 vs 64×16 here), so the cache must hand out two distinct
        // kernel tables — a collision would apply a 64-point spectrum to
        // a 40-point grid. The physical fields still agree to rounding.
        let (mesh, mat) = film_setup(20, 5);
        let good = NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::GoodSize);
        let pow2 =
            NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::PowerOfTwo);
        assert_ne!(good.padded_dims(), pow2.padded_dims());
        assert_eq!(pow2.padded_dims(), (64, 16));
        assert!(
            !Arc::ptr_eq(&good.spectra, &pow2.spectra),
            "different padded grids must not share a cache entry"
        );
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((0.4 * i as f64).sin(), 0.3, (0.2 * i as f64).cos()).normalized())
            .collect();
        let ms = mat.saturation_magnetization();
        let mut ha = vec![Vec3::ZERO; n];
        let mut hb = vec![Vec3::ZERO; n];
        good.accumulate(&m, 0.0, &mut ha);
        pow2.accumulate(&m, 0.0, &mut hb);
        for i in 0..n {
            let err = (ha[i] - hb[i]).norm() / ms;
            assert!(err < 1e-12, "cell {i}: policies diverged by {err:e}");
        }
    }

    #[test]
    fn odd_padded_grid_matches_direct_newell_sum() {
        // An 8×8 mesh pads to 15×15 under good_size (2·8−1 = 15 = 3·5):
        // both axes odd, exercising the wrap offsets, the `2j == p`
        // Nyquist guard (no line may be zeroed at odd sizes) and the
        // conjugate-pair spectral multiply away from powers of two.
        let (mesh, mat) = film_setup(8, 8);
        let demag = NewellDemag::new(&mesh, &mat);
        assert_eq!(demag.padded_dims(), (15, 15), "expected odd padding");
        let n = mesh.cell_count();
        let ms = mat.saturation_magnetization();
        let [dx, dy, dz] = mesh.cell_size();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.3, (0.5 * i as f64).sin(), 0.7 + 0.01 * i as f64).normalized())
            .collect();
        let mut fft_field = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut fft_field);
        for iy in 0..mesh.ny() {
            for ix in 0..mesh.nx() {
                let i = iy * mesh.nx() + ix;
                let mut direct = Vec3::ZERO;
                for jy in 0..mesh.ny() {
                    for jx in 0..mesh.nx() {
                        let j = jy * mesh.nx() + jx;
                        let x = (ix as isize - jx as isize) as f64 * dx;
                        let y = (iy as isize - jy as isize) as f64 * dy;
                        let nxx = newell_nxx(x, y, 0.0, dx, dy, dz);
                        let nyy = newell_nxx(y, x, 0.0, dy, dx, dz);
                        let nzz = newell_nxx(0.0, y, x, dz, dy, dx);
                        let nxy = newell_nxy(x, y, 0.0, dx, dy, dz);
                        let mj = m[j] * ms;
                        direct += Vec3::new(
                            -(nxx * mj.x + nxy * mj.y),
                            -(nxy * mj.x + nyy * mj.y),
                            -nzz * mj.z,
                        );
                    }
                }
                let err = (fft_field[i] - direct).norm() / ms;
                assert!(
                    err < 1e-12,
                    "cell ({ix},{iy}): FFT {:?} vs direct {direct:?} (err {err:e})",
                    fft_field[i]
                );
            }
        }
    }

    #[test]
    fn exact_padding_matches_direct_newell_sum_through_bluestein() {
        // PadPolicy::Exact pads 6×3 to 11×5 — 11 is prime, so the row
        // axis runs the Bluestein fallback inside a real convolution.
        // The field must still reproduce the direct O(N²) tensor sum.
        let (mesh, mat) = film_setup(6, 3);
        let demag = NewellDemag::with_padding(&mesh, &mat, &WorkerTeam::new(1), PadPolicy::Exact);
        assert_eq!(demag.padded_dims(), (11, 5));
        let n = mesh.cell_count();
        let ms = mat.saturation_magnetization();
        let [dx, dy, dz] = mesh.cell_size();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.5 * (i as f64).cos(), 0.4, 0.8 + 0.02 * i as f64).normalized())
            .collect();
        let mut fft_field = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut fft_field);
        for iy in 0..mesh.ny() {
            for ix in 0..mesh.nx() {
                let i = iy * mesh.nx() + ix;
                let mut direct = Vec3::ZERO;
                for jy in 0..mesh.ny() {
                    for jx in 0..mesh.nx() {
                        let j = jy * mesh.nx() + jx;
                        let x = (ix as isize - jx as isize) as f64 * dx;
                        let y = (iy as isize - jy as isize) as f64 * dy;
                        let nxx = newell_nxx(x, y, 0.0, dx, dy, dz);
                        let nyy = newell_nxx(y, x, 0.0, dy, dx, dz);
                        let nzz = newell_nxx(0.0, y, x, dz, dy, dx);
                        let nxy = newell_nxy(x, y, 0.0, dx, dy, dz);
                        let mj = m[j] * ms;
                        direct += Vec3::new(
                            -(nxx * mj.x + nxy * mj.y),
                            -(nxy * mj.x + nyy * mj.y),
                            -nzz * mj.z,
                        );
                    }
                }
                let err = (fft_field[i] - direct).norm() / ms;
                assert!(
                    err < 1e-11,
                    "cell ({ix},{iy}): exact-padded FFT {:?} vs direct {direct:?} (err {err:e})",
                    fft_field[i]
                );
            }
        }
    }

    #[test]
    fn odd_padded_spectra_are_real() {
        // The purely-real-spectrum property must survive odd padded
        // sizes: 8×5 pads to 15×9.
        let (mesh, _) = film_setup(8, 5);
        let px = PadPolicy::GoodSize.pad(mesh.nx());
        let py = PadPolicy::GoodSize.pad(mesh.ny());
        assert_eq!((px, py), (15, 9));
        let plan = Fft2Plan::new(px, py);
        let spectra = kernel_spectra(px, py, mesh.cell_size(), &plan, &WorkerTeam::new(1));
        for (name, k) in ["Kxx", "Kyy", "Kzz", "Kxy"].iter().zip(&spectra) {
            let max_re = k.iter().map(|z| z.re.abs()).fold(0.0, f64::max);
            let max_im = k.iter().map(|z| z.im.abs()).fold(0.0, f64::max);
            assert!(
                max_im <= 1e-12 * max_re,
                "{name} spectrum is not real at odd padding: \
                 max |Im| = {max_im:e}, max |Re| = {max_re:e}"
            );
        }
    }

    #[test]
    fn parallel_field_is_bitwise_identical_to_fallback() {
        let (mut mesh, mat) = film_setup(11, 7);
        mesh.set_magnetic(4, 3, false);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m: Vec<Vec3> = (0..n)
            .map(|i| {
                if mesh.mask()[i] {
                    Vec3::new(
                        (0.3 * i as f64).sin(),
                        (0.7 * i as f64).cos(),
                        1.0 - 0.01 * i as f64,
                    )
                    .normalized()
                } else {
                    Vec3::ZERO
                }
            })
            .collect();
        let mut reference = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut reference);
        let mf = Field3::from_vec3s(&m);
        for threads in [1, 2, 4, 7] {
            let team = WorkerTeam::new(threads);
            let mut scratch = demag.make_scratch().expect("demag needs scratch");
            let mut h = Field3::zeros(n);
            demag.accumulate_par(&mf, 0.0, &mut h, &team, Some(scratch.as_mut()));
            assert_eq!(
                h.to_vec(),
                reference,
                "demag field diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn convolution_matches_direct_newell_sum() {
        // Small grid: the FFT convolution must reproduce the O(N²) direct
        // tensor sum h_i = Σ_j K(r_i − r_j)·Ms·m_j to rounding accuracy.
        let (mesh, mat) = film_setup(6, 3);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let ms = mat.saturation_magnetization();
        let [dx, dy, dz] = mesh.cell_size();
        let m: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.5 * (i as f64).cos(), 0.4, 0.8 + 0.02 * i as f64).normalized())
            .collect();
        let mut fft_field = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut fft_field);
        for iy in 0..mesh.ny() {
            for ix in 0..mesh.nx() {
                let i = iy * mesh.nx() + ix;
                let mut direct = Vec3::ZERO;
                for jy in 0..mesh.ny() {
                    for jx in 0..mesh.nx() {
                        let j = jy * mesh.nx() + jx;
                        let x = (ix as isize - jx as isize) as f64 * dx;
                        let y = (iy as isize - jy as isize) as f64 * dy;
                        let nxx = newell_nxx(x, y, 0.0, dx, dy, dz);
                        let nyy = newell_nxx(y, x, 0.0, dy, dx, dz);
                        let nzz = newell_nxx(0.0, y, x, dz, dy, dx);
                        let nxy = newell_nxy(x, y, 0.0, dx, dy, dz);
                        let mj = m[j] * ms;
                        direct += Vec3::new(
                            -(nxx * mj.x + nxy * mj.y),
                            -(nxy * mj.x + nyy * mj.y),
                            -nzz * mj.z,
                        );
                    }
                }
                let err = (fft_field[i] - direct).norm() / ms;
                assert!(
                    err < 1e-12,
                    "cell ({ix},{iy}): FFT {:?} vs direct {direct:?} (err {err:e})",
                    fft_field[i]
                );
            }
        }
    }

    #[test]
    fn newell_field_of_flat_film_approaches_local_limit() {
        // A uniformly out-of-plane magnetized wide thin film: at the centre
        // H_z → −Ms, the thin-film local value.
        let (mesh, mat) = film_setup(32, 32);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m = vec![Vec3::Z; n];
        let mut h = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut h);
        let centre = mesh.linear_index(16, 16);
        let hz = h[centre].z;
        let ms = mat.saturation_magnetization();
        assert!(
            (hz + ms).abs() / ms < 0.15,
            "centre demag field {hz} should be close to -Ms = {}",
            -ms
        );
        // In-plane components vanish by symmetry.
        assert!(h[centre].x.abs() / ms < 1e-6);
        assert!(h[centre].y.abs() / ms < 1e-6);
        // The edge field is weaker (flux closure).
        let edge = mesh.linear_index(0, 16);
        assert!(h[edge].z.abs() < hz.abs());
    }

    #[test]
    fn thin_film_local_term_is_minus_ms_mz() {
        let (mesh, mat) = film_setup(4, 4);
        let demag = ThinFilmDemag::new(&mesh, &mat);
        let m = vec![Vec3::new(0.6, 0.0, 0.8); mesh.cell_count()];
        let mut h = vec![Vec3::ZERO; mesh.cell_count()];
        demag.accumulate(&m, 0.0, &mut h);
        for hi in &h {
            assert!((hi.z + mat.saturation_magnetization() * 0.8).abs() < 1e-6);
            assert_eq!(hi.x, 0.0);
        }
    }

    #[test]
    fn vacuum_cells_receive_no_demag_field() {
        let (mut mesh, mat) = film_setup(4, 1);
        mesh.set_magnetic(3, 0, false);
        let local = ThinFilmDemag::new(&mesh, &mat);
        let newell = NewellDemag::new(&mesh, &mat);
        let m = vec![Vec3::Z; 4];
        for term in [&local as &dyn FieldTerm, &newell as &dyn FieldTerm] {
            let mut h = vec![Vec3::ZERO; 4];
            term.accumulate(&m, 0.0, &mut h);
            assert_eq!(h[3], Vec3::ZERO, "{} leaked into vacuum", term.name());
        }
    }

    #[test]
    fn in_plane_magnetized_film_has_small_demag_field_inside() {
        // For in-plane magnetization of a thin film the demag field is
        // weak (N∥ ≈ 0) — checks the Nxx path of the convolution.
        let (mesh, mat) = film_setup(32, 32);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let m = vec![Vec3::X; n];
        let mut h = vec![Vec3::ZERO; n];
        demag.accumulate(&m, 0.0, &mut h);
        let centre = mesh.linear_index(16, 16);
        let ms = mat.saturation_magnetization();
        assert!(
            h[centre].x.abs() / ms < 0.1,
            "in-plane demag field should be small: {}",
            h[centre].x / ms
        );
    }

    #[test]
    fn demag_energy_prefers_out_of_plane_for_nothing() {
        // Sanity: out-of-plane uniform state has *higher* demag energy than
        // in-plane for a film (shape anisotropy).
        let (mesh, mat) = film_setup(16, 16);
        let demag = NewellDemag::new(&mesh, &mat);
        let n = mesh.cell_count();
        let ms = mat.saturation_magnetization();
        let v = mesh.cell_volume();
        let e_oop = demag.energy(&vec![Vec3::Z; n], 0.0, ms, v);
        let e_ip = demag.energy(&vec![Vec3::X; n], 0.0, ms, v);
        assert!(e_oop > e_ip, "film shape anisotropy: {e_oop} vs {e_ip}");
    }
}
