//! Elastic response spectra (process #16 — the pipeline's dominant cost).
//!
//! For every oscillator period `T` and damping ratio `ζ`, the peak response
//! of a single-degree-of-freedom system driven by the ground acceleration is
//! computed: relative displacement `SD`, relative velocity `SV`, and absolute
//! acceleration `SA` (plus the pseudo-quantities `PSV = ω·SD`,
//! `PSA = ω²·SD`).
//!
//! Two solvers are provided:
//!
//! * [`ResponseMethod::Duhamel`] — direct evaluation of the Duhamel
//!   convolution integral, `O(D²)` in the record length per period. This is
//!   the method class behind the paper's stated sequential complexity of
//!   `O(9000 · N · D²)` for process #16, and is kept as the faithful
//!   reproduction of the legacy Fortran kernel.
//! * [`ResponseMethod::NigamJennings`] — the exact piecewise-linear
//!   recurrence (Nigam & Jennings, 1969), `O(D)` per period; used as the
//!   fast alternative and as an ablation of the paper's "advanced
//!   optimization" future work.

use crate::backend::DspBackend;
use crate::error::{require_finite, DspError};

/// Solver used for the SDOF time-history integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ResponseMethod {
    /// Direct Duhamel integral, `O(D²)` per period (legacy-faithful).
    Duhamel,
    /// Exact recursive solution for piecewise-linear input, `O(D)` per period.
    NigamJennings,
}

/// Peak SDOF responses for one `(period, damping)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SdofPeaks {
    /// Peak relative displacement.
    pub sd: f64,
    /// Peak relative velocity.
    pub sv: f64,
    /// Peak absolute acceleration.
    pub sa: f64,
}

/// A full response spectrum over a period grid at one damping ratio.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResponseSpectrum {
    /// Oscillator periods (s), ascending.
    pub periods: Vec<f64>,
    /// Damping ratio (fraction of critical, e.g. 0.05).
    pub damping: f64,
    /// Peak relative displacement per period.
    pub sd: Vec<f64>,
    /// Peak relative velocity per period.
    pub sv: Vec<f64>,
    /// Peak absolute acceleration per period.
    pub sa: Vec<f64>,
}

impl ResponseSpectrum {
    /// Pseudo-velocity spectrum `PSV = ω · SD`.
    pub fn psv(&self) -> Vec<f64> {
        self.periods
            .iter()
            .zip(&self.sd)
            .map(|(&t, &sd)| 2.0 * std::f64::consts::PI / t * sd)
            .collect()
    }

    /// Pseudo-acceleration spectrum `PSA = ω² · SD`.
    pub fn psa(&self) -> Vec<f64> {
        self.periods
            .iter()
            .zip(&self.sd)
            .map(|(&t, &sd)| {
                let w = 2.0 * std::f64::consts::PI / t;
                w * w * sd
            })
            .collect()
    }

    /// Number of spectral ordinates.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True when the spectrum has no ordinates.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }
}

/// The standard 91-period grid used by classic Vol.3 processing: log-spaced
/// between 0.04 s and 15 s.
pub fn standard_periods() -> Vec<f64> {
    log_spaced_periods(0.04, 15.0, 91)
}

/// `count` log-spaced periods between `t_lo` and `t_hi` seconds.
pub fn log_spaced_periods(t_lo: f64, t_hi: f64, count: usize) -> Vec<f64> {
    assert!(
        t_lo > 0.0 && t_hi > t_lo && count >= 2,
        "bad period grid spec"
    );
    let l0 = t_lo.ln();
    let step = (t_hi.ln() - l0) / (count - 1) as f64;
    (0..count).map(|i| (l0 + step * i as f64).exp()).collect()
}

/// The damping set archived in `R` files: 0%, 2%, 5%, 10%, 20% of critical.
pub const STANDARD_DAMPINGS: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// Computes the peak response of one SDOF oscillator.
///
/// `period` in seconds, `damping` as a fraction of critical in `[0, 0.99]`.
pub fn sdof_peaks(
    acc: &[f64],
    dt: f64,
    period: f64,
    damping: f64,
    method: ResponseMethod,
) -> Result<SdofPeaks, DspError> {
    validate_sdof_args(acc, dt, period, damping)?;
    // Past a NaN or ±inf sample the recurrences carry NaN, which the
    // running peaks skip: the rest of the record would silently drop out.
    require_finite(acc)?;
    Ok(match method {
        ResponseMethod::Duhamel => duhamel_peaks(acc, dt, period, damping),
        ResponseMethod::NigamJennings => nigam_jennings_peaks(acc, dt, period, damping),
    })
}

fn validate_sdof_args(acc: &[f64], dt: f64, period: f64, damping: f64) -> Result<(), DspError> {
    if acc.len() < 2 {
        return Err(DspError::TooShort {
            needed: 2,
            got: acc.len(),
        });
    }
    if !(dt.is_finite() && dt > 0.0) {
        return Err(DspError::InvalidSampling(dt));
    }
    if !(period.is_finite() && period > 0.0) {
        return Err(DspError::InvalidArgument(format!(
            "period {period} must be > 0"
        )));
    }
    if !(0.0..0.99).contains(&damping) {
        return Err(DspError::InvalidArgument(format!(
            "damping {damping} must be in [0, 0.99)"
        )));
    }
    Ok(())
}

/// Per-period SDOF constants shared by both solvers and both backends.
///
/// Computed once per `(period, damping)` chain by [`sdof_consts`] so the
/// scalar kernel and the blocked sweep see exactly the same values (the
/// transcendentals here are the only `exp`/`sin_cos` calls in the
/// Nigam–Jennings path).
#[derive(Debug, Clone, Copy)]
struct SdofConsts {
    /// Damped frequency `ωd = ω·√(1-ζ²)`.
    wd: f64,
    /// Decay rate `ζω`.
    bw: f64,
    /// `ω²`.
    w2: f64,
    /// Step decay `e^{-ζω·dt}`.
    e: f64,
    /// `sin(ωd·dt)`.
    s: f64,
    /// `cos(ωd·dt)`.
    c: f64,
}

/// Natural frequency `ω = 2π/T` and `ω²`: the part of [`SdofConsts`] that
/// depends on the period alone.
fn omega(period: f64) -> (f64, f64) {
    let w = 2.0 * std::f64::consts::PI / period;
    (w, w * w)
}

fn sdof_consts(dt: f64, period: f64, damping: f64) -> SdofConsts {
    let (w, w2) = omega(period);
    let wd = w * (1.0 - damping * damping).sqrt();
    let bw = damping * w;
    let e = (-bw * dt).exp();
    let (s, c) = (wd * dt).sin_cos();
    SdofConsts {
        wd,
        bw,
        w2,
        e,
        s,
        c,
    }
}

/// The slope term `dd = -γ/ω²` of one step's particular solution, for
/// the step's slope `gamma = (a1 - a0)/dt`. It depends on the period but
/// not the damping, so the blocked sweep computes it once per period and
/// step and every damping of that period shares it.
#[inline(always)]
fn slope_term(gamma: f64, w2: f64) -> f64 {
    -gamma / w2
}

/// One Nigam–Jennings step: advances `(u, v)` across one sample interval
/// with ground acceleration `a0 + γ·τ`, given the step's
/// [`slope_term`] `dd`, returning `(u', v', absolute acceleration)`.
///
/// `#[inline(always)]` and shared by the scalar kernel and the blocked
/// sweep: every chain executes this exact expression tree per step, which is
/// what makes the backends bitwise-equal.
#[inline(always)]
fn nj_step(k: &SdofConsts, dt: f64, dd: f64, a0: f64, u: f64, v: f64) -> (f64, f64, f64) {
    // Particular solution u_p = cc + dd·τ for forcing -(a0 + γτ).
    let cc = (-a0 - 2.0 * k.bw * dd) / k.w2;

    // Homogeneous constants from initial conditions at τ = 0.
    let p = u - cc;
    let q = (v - dd + k.bw * p) / k.wd;

    // Advance to τ = dt.
    let rot = p * k.c + q * k.s;
    let u_next = k.e * rot + cc + dd * dt;
    let v_next = k.e * (-k.bw * rot + k.wd * (q * k.c - p * k.s)) + dd;

    let a_abs = -(2.0 * k.bw * v_next + k.w2 * u_next);
    (u_next, v_next, a_abs)
}

/// Direct Duhamel integral: `u(t) = -(1/ωd) ∫ a(τ) e^{-ζω(t-τ)} sin(ωd(t-τ)) dτ`,
/// evaluated with the rectangle rule at every output sample — `O(D²)`.
/// Velocity comes from the companion cosine kernel; absolute acceleration
/// from the equation of motion.
fn duhamel_peaks(acc: &[f64], dt: f64, period: f64, damping: f64) -> SdofPeaks {
    let k = sdof_consts(dt, period, damping);
    let n = acc.len();

    let mut sd = 0.0f64;
    let mut sv = 0.0f64;
    let mut sa = 0.0f64;

    for j in 0..n {
        // u(t_j), u'(t_j) via the convolution sums.
        let mut sum_sin = 0.0;
        let mut sum_cos = 0.0;
        let tj = j as f64 * dt;
        for (i, &a) in acc.iter().take(j + 1).enumerate() {
            let lag = tj - i as f64 * dt;
            let decay = (-k.bw * lag).exp();
            let (s, c) = (k.wd * lag).sin_cos();
            sum_sin += a * decay * s;
            sum_cos += a * decay * c;
        }
        let u = -(dt / k.wd) * sum_sin;
        // u'(t) = d/dt of the integral: -(dt) * [cos kernel - (ζω/ωd) sin kernel]
        let v = -dt * (sum_cos - (k.bw / k.wd) * sum_sin);
        let a_abs = -(2.0 * k.bw * v + k.w2 * u);
        sd = sd.max(u.abs());
        sv = sv.max(v.abs());
        sa = sa.max(a_abs.abs());
    }

    SdofPeaks { sd, sv, sa }
}

/// Exact recurrence for piecewise-linear ground acceleration
/// (Nigam–Jennings). For each step the analytic solution of
/// `u'' + 2ζω u' + ω² u = -a_g(τ)` with `a_g` linear on the step is used to
/// advance `(u, v)` — `O(D)`. The scalar backend's kernel and the bitwise
/// reference of [`nj_sweep`].
fn nigam_jennings_peaks(acc: &[f64], dt: f64, period: f64, damping: f64) -> SdofPeaks {
    let k = sdof_consts(dt, period, damping);

    let mut u = 0.0f64;
    let mut v = 0.0f64;
    let mut sd = 0.0f64;
    let mut sv = 0.0f64;
    // At rest, absolute acceleration -(2ζω v + ω² u) is zero.
    let mut sa = 0.0f64;

    for i in 0..acc.len() - 1 {
        let gamma = (acc[i + 1] - acc[i]) / dt;
        let dd = slope_term(gamma, k.w2);
        let (u_next, v_next, a_abs) = nj_step(&k, dt, dd, acc[i], u, v);
        u = u_next;
        v = v_next;
        sd = sd.max(u.abs());
        sv = sv.max(v.abs());
        sa = sa.max(a_abs.abs());
    }

    SdofPeaks { sd, sv, sa }
}

/// Periods per row of a [`SweepBlock`]: per field, two 8-wide AVX-512
/// vectors, four 4-wide AVX2 or eight 2-wide SSE2 ones. A chain's step
/// depends on its previous step through the division in `q`, so a row's
/// sixteen chains, times the block's dampings, keep the divider busy.
const ROW: usize = 16;

/// One damping's chains in a [`SweepBlock`]: lane `p` of every array
/// belongs to the block's period `p`. The damping-dependent
/// [`SdofConsts`] fields and the running state, one array per field, so
/// the sweep handles each field for the whole row as whole vectors.
#[derive(Debug, Clone)]
struct Row {
    wd: [f64; ROW],
    bw: [f64; ROW],
    e: [f64; ROW],
    s: [f64; ROW],
    c: [f64; ROW],
    u: [f64; ROW],
    v: [f64; ROW],
    sd: [f64; ROW],
    sv: [f64; ROW],
    sa: [f64; ROW],
}

/// Up to [`ROW`] periods times every requested damping, advanced together
/// by one pass of [`nj_sweep`] over the record: period-major, so the
/// values that depend on the period alone (`ω²` and each step's
/// [`slope_term`]) are held or computed once for all of its dampings.
#[derive(Debug, Clone)]
struct SweepBlock {
    w2: [f64; ROW],
    /// One row per damping, in the caller's damping order.
    rows: Vec<Row>,
}

impl SweepBlock {
    /// Packs `periods` (at most [`ROW`]) against every damping. A short
    /// block repeats its last period; the caller discards those lanes.
    fn new(dt: f64, periods: &[f64], dampings: &[f64]) -> Self {
        let period = |p: usize| periods[p.min(periods.len() - 1)];
        let rows = dampings
            .iter()
            .map(|&damping| {
                let k: [SdofConsts; ROW] =
                    std::array::from_fn(|p| sdof_consts(dt, period(p), damping));
                Row {
                    wd: k.map(|k| k.wd),
                    bw: k.map(|k| k.bw),
                    e: k.map(|k| k.e),
                    s: k.map(|k| k.s),
                    c: k.map(|k| k.c),
                    u: [0.0; ROW],
                    v: [0.0; ROW],
                    sd: [0.0; ROW],
                    sv: [0.0; ROW],
                    // At rest, absolute acceleration -(2ζω v + ω² u) is zero.
                    sa: [0.0; ROW],
                }
            })
            .collect();
        SweepBlock {
            w2: std::array::from_fn(|p| omega(period(p)).1),
            rows,
        }
    }
}

/// Nigam–Jennings peaks of every chain of `block`, in one pass over the
/// record. Per step the slope is computed once and each period's
/// [`slope_term`] once; every chain then runs [`nj_step`] with the scalar
/// kernel's inputs, so each chain's bits equal [`nigam_jennings_peaks`]'s.
/// A running peak rises with `if x > peak`, one `maxpd`, where `f64::max`
/// costs three instructions; the two agree because `x` is an absolute
/// value and a peak never holds `NaN`.
///
/// Called directly, it compiles for the build's baseline target (2-wide
/// SSE2 on x86-64); [`SweepWidth`] picks a wider form at run time.
#[inline(always)]
fn nj_sweep(acc: &[f64], dt: f64, block: &mut SweepBlock) {
    let w2 = block.w2;
    let raise = |peak: f64, x: f64| if x > peak { x } else { peak };
    for pair in acc.windows(2) {
        let (a0, gamma) = (pair[0], (pair[1] - pair[0]) / dt);
        let dd: [f64; ROW] = std::array::from_fn(|p| slope_term(gamma, w2[p]));
        for r in block.rows.iter_mut() {
            for p in 0..ROW {
                let k = SdofConsts {
                    wd: r.wd[p],
                    bw: r.bw[p],
                    w2: w2[p],
                    e: r.e[p],
                    s: r.s[p],
                    c: r.c[p],
                };
                let (u_next, v_next, a_abs) = nj_step(&k, dt, dd[p], a0, r.u[p], r.v[p]);
                r.u[p] = u_next;
                r.v[p] = v_next;
                r.sd[p] = raise(r.sd[p], u_next.abs());
                r.sv[p] = raise(r.sv[p], v_next.abs());
                r.sa[p] = raise(r.sa[p], a_abs.abs());
            }
        }
    }
}

/// [`nj_sweep`] compiled with 4-wide AVX2 vectors: the same operations in
/// the same order, so the same bits. `fma` stays off, so no multiply and
/// add can fuse.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn nj_sweep_avx2(acc: &[f64], dt: f64, block: &mut SweepBlock) {
    nj_sweep(acc, dt, block)
}

/// [`nj_sweep`] compiled with 8-wide AVX-512 vectors. `avx512f` implies
/// `fma` as a target feature, but Rust never contracts `a * b + c` into a
/// fused operation, so the bits stay those of the portable form.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn nj_sweep_avx512(acc: &[f64], dt: f64, block: &mut SweepBlock) {
    nj_sweep(acc, dt, block)
}

/// The forms [`nj_sweep`] is compiled in, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepWidth {
    /// The build target's baseline vectors.
    Portable,
    /// 4-wide AVX2.
    Avx2,
    /// 8-wide AVX-512.
    Avx512,
}

impl SweepWidth {
    const ALL: [SweepWidth; 3] = [SweepWidth::Portable, SweepWidth::Avx2, SweepWidth::Avx512];

    /// Whether this CPU runs the form.
    fn available(self) -> bool {
        match self {
            SweepWidth::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SweepWidth::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SweepWidth::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest form this CPU runs.
    fn widest() -> SweepWidth {
        let mut widths = SweepWidth::ALL.into_iter().rev();
        widths
            .find(|w| w.available())
            .unwrap_or(SweepWidth::Portable)
    }

    /// Runs [`nj_sweep`] in this form.
    ///
    /// # Panics
    /// Panics if the CPU lacks the form.
    fn sweep(self, acc: &[f64], dt: f64, block: &mut SweepBlock) {
        assert!(self.available(), "this CPU has no {self:?} sweep");
        match self {
            #[cfg(target_arch = "x86_64")]
            SweepWidth::Avx2 => {
                // SAFETY: the CPU supports AVX2, as asserted above.
                unsafe { nj_sweep_avx2(acc, dt, block) }
            }
            #[cfg(target_arch = "x86_64")]
            SweepWidth::Avx512 => {
                // SAFETY: the CPU supports AVX-512F, as asserted above.
                unsafe { nj_sweep_avx512(acc, dt, block) }
            }
            _ => nj_sweep(acc, dt, block),
        }
    }
}

/// Nigam–Jennings peaks of every `(damping, period)` pair, damping-major,
/// swept block by block in `width`'s form.
fn nj_sweep_all(
    width: SweepWidth,
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    dampings: &[f64],
) -> Vec<SdofPeaks> {
    let mut peaks = vec![SdofPeaks::default(); periods.len() * dampings.len()];
    for (b, block_periods) in periods.chunks(ROW).enumerate() {
        let mut block = SweepBlock::new(dt, block_periods, dampings);
        width.sweep(acc, dt, &mut block);
        for (d, r) in block.rows.iter().enumerate() {
            for p in 0..block_periods.len() {
                peaks[d * periods.len() + b * ROW + p] = SdofPeaks {
                    sd: r.sd[p],
                    sv: r.sv[p],
                    sa: r.sa[p],
                };
            }
        }
    }
    peaks
}

/// Computes a response spectrum over `periods` at one damping ratio.
pub fn response_spectrum(
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    damping: f64,
    method: ResponseMethod,
) -> Result<ResponseSpectrum, DspError> {
    response_spectrum_with(acc, dt, periods, damping, method, DspBackend::Auto)
}

/// As [`response_spectrum`] with an explicit [`DspBackend`]: the
/// one-damping case of [`response_spectra_with`].
pub fn response_spectrum_with(
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    damping: f64,
    method: ResponseMethod,
    backend: DspBackend,
) -> Result<ResponseSpectrum, DspError> {
    let mut spectra = response_spectra_with(acc, dt, periods, &[damping], method, backend)?;
    Ok(spectra
        .pop()
        .expect("one damping ratio yields one spectrum"))
}

/// Response spectra over `periods` at each of `dampings`, in that order.
///
/// Every `(damping, period)` pair is checked, damping-major, before
/// anything is computed, then the record: a `NaN` or `±inf` sample is a
/// [`DspError::NonFiniteSample`]. Under the SIMD backend the
/// Nigam–Jennings pairs become independent chains, swept over the record
/// in blocks of 16 periods times every damping, in the widest vector form
/// the CPU has (AVX-512, AVX2 or the build target's); a short last block
/// repeats its last period. Every chain runs the scalar kernel's exact
/// operations, so the backends are bitwise-equal. Duhamel runs the scalar
/// per-period kernel under both backends.
pub fn response_spectra_with(
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    dampings: &[f64],
    method: ResponseMethod,
    backend: DspBackend,
) -> Result<Vec<ResponseSpectrum>, DspError> {
    let chains: Vec<(f64, f64)> = dampings
        .iter()
        .flat_map(|&damping| periods.iter().map(move |&period| (period, damping)))
        .collect();
    for &(period, damping) in &chains {
        validate_sdof_args(acc, dt, period, damping)?;
    }
    require_finite(acc)?;

    let peaks: Vec<SdofPeaks> = match (method, backend.resolve()) {
        (ResponseMethod::NigamJennings, DspBackend::Simd) => {
            nj_sweep_all(SweepWidth::widest(), acc, dt, periods, dampings)
        }
        (ResponseMethod::NigamJennings, _) => chains
            .iter()
            .map(|&(period, damping)| nigam_jennings_peaks(acc, dt, period, damping))
            .collect(),
        (ResponseMethod::Duhamel, _) => chains
            .iter()
            .map(|&(period, damping)| duhamel_peaks(acc, dt, period, damping))
            .collect(),
    };

    let n = periods.len();
    Ok(dampings
        .iter()
        .enumerate()
        .map(|(i, &damping)| {
            let row = &peaks[i * n..(i + 1) * n];
            ResponseSpectrum {
                periods: periods.to_vec(),
                damping,
                sd: row.iter().map(|p| p.sd).collect(),
                sv: row.iter().map(|p| p.sv).collect(),
                sa: row.iter().map(|p| p.sa).collect(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(f: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 * dt).sin())
            .collect()
    }

    #[test]
    fn period_grids() {
        let p = standard_periods();
        assert_eq!(p.len(), 91);
        assert!((p[0] - 0.04).abs() < 1e-12);
        assert!((p[90] - 15.0).abs() < 1e-9);
        for w in p.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic]
    fn bad_period_grid_panics() {
        log_spaced_periods(1.0, 0.5, 10);
    }

    #[test]
    fn argument_validation() {
        let acc = vec![1.0, 2.0, 3.0];
        assert!(sdof_peaks(&acc, 0.01, 0.0, 0.05, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.01, 1.0, -0.1, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.01, 1.0, 1.0, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.0, 1.0, 0.05, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&[1.0], 0.01, 1.0, 0.05, ResponseMethod::NigamJennings).is_err());
    }

    #[test]
    fn non_finite_sample_is_a_typed_error() {
        let dt = 0.01;
        let periods = log_spaced_periods(0.05, 5.0, 20);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut acc = tone(1.5, dt, 400);
            acc[200] = bad;
            let want = DspError::NonFiniteSample { index: 200 };
            for method in [ResponseMethod::NigamJennings, ResponseMethod::Duhamel] {
                for backend in [DspBackend::Scalar, DspBackend::Simd] {
                    let one = response_spectrum_with(&acc, dt, &periods, 0.05, method, backend);
                    assert_eq!(one.unwrap_err(), want, "{bad} {method:?} {backend}");
                    let all = response_spectra_with(
                        &acc,
                        dt,
                        &periods,
                        &STANDARD_DAMPINGS,
                        method,
                        backend,
                    );
                    assert_eq!(all.unwrap_err(), want, "{bad} {method:?} {backend}");
                }
                assert_eq!(sdof_peaks(&acc, dt, 1.0, 0.05, method).unwrap_err(), want);
            }
        }
    }

    #[test]
    fn first_error_follows_damping_major_order() {
        // The first damping's bad period is reported before the second
        // damping's bad ratio, as a loop over dampings would find them.
        let acc = tone(1.0, 0.01, 100);
        let err = response_spectra_with(
            &acc,
            0.01,
            &[1.0, -2.0],
            &[0.05, 1.5],
            ResponseMethod::NigamJennings,
            DspBackend::Simd,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DspError::InvalidArgument("period -2 must be > 0".into())
        );
    }

    #[test]
    fn avx2_and_portable_sweeps_are_bitwise_equal() {
        // The pipeline runs only the widest form the CPU has, so this test
        // is the narrower forms' only check there. Every form must equal
        // the scalar kernel chain for chain, hence each other.
        let dt = 0.01;
        let acc: Vec<f64> = (0..700)
            .map(|i| (0.37 * i as f64).sin() * 80.0 + ((i * 29 % 13) as f64 - 6.0))
            .collect();
        // Undamped to heavily damped; a block holds every damping at once.
        let all_dampings = [0.0, 0.02, 0.05, 0.2, 0.9, 0.1, 0.35];
        for width in SweepWidth::ALL {
            if !width.available() {
                eprintln!("{width:?} sweep not checked: this CPU lacks it");
                continue;
            }
            for n_dampings in [1, 2, 5, 7] {
                let dampings = &all_dampings[..n_dampings];
                // Short, full and partly filled last blocks.
                for n_periods in [1, 7, ROW, ROW + 5, 3 * ROW - 1] {
                    let periods: Vec<f64> =
                        (0..n_periods).map(|i| 0.04 + 0.17 * i as f64).collect();
                    let peaks = nj_sweep_all(width, &acc, dt, &periods, dampings);
                    for (d, &damping) in dampings.iter().enumerate() {
                        for (p, &period) in periods.iter().enumerate() {
                            let got = peaks[d * n_periods + p];
                            let want = nigam_jennings_peaks(&acc, dt, period, damping);
                            for (a, b) in [(got.sd, want.sd), (got.sv, want.sv), (got.sa, want.sa)]
                            {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{width:?} T={period} ζ={damping}: {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resonant_response_grows() {
        // An oscillator driven at its own frequency responds much more
        // strongly than one far off resonance.
        let dt = 0.005;
        let n = 4000;
        let f0 = 2.0; // 0.5 s period
        let acc = tone(f0, dt, n);
        let on = sdof_peaks(&acc, dt, 0.5, 0.05, ResponseMethod::NigamJennings).unwrap();
        // A stiff oscillator far above the driving frequency barely deflects.
        let off = sdof_peaks(&acc, dt, 0.05, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert!(on.sd > 100.0 * off.sd, "on {} off {}", on.sd, off.sd);
    }

    #[test]
    fn steady_state_amplitude_matches_theory() {
        // Driven SDOF at resonance with damping ζ reaches dynamic
        // amplification 1/(2ζ) over the static response a0/ω².
        let dt = 0.002;
        let n = 60_000; // long record so the transient dies out
        let period = 0.75;
        let zeta = 0.05;
        let f0 = 1.0 / period;
        let acc = tone(f0, dt, n);
        let p = sdof_peaks(&acc, dt, period, zeta, ResponseMethod::NigamJennings).unwrap();
        let w = 2.0 * PI / period;
        let want = 1.0 / (2.0 * zeta) / (w * w); // amplitude 1 forcing
        assert!(
            (p.sd - want).abs() / want < 0.03,
            "sd {} vs theory {}",
            p.sd,
            want
        );
    }

    #[test]
    fn short_period_sa_approaches_pga() {
        // A very stiff oscillator rides the ground: SA -> PGA.
        let dt = 0.001;
        let n = 8000;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                (2.0 * PI * 1.0 * t).sin() * (-((t - 4.0) / 2.0).powi(2)).exp() * 50.0
            })
            .collect();
        let pga = acc.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let p = sdof_peaks(&acc, dt, 0.02, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert!((p.sa - pga).abs() / pga < 0.05, "sa {} pga {}", p.sa, pga);
    }

    #[test]
    fn duhamel_and_nigam_jennings_agree() {
        let dt = 0.01;
        let n = 600;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                (2.0 * PI * 1.3 * t).sin() * (-(t - 3.0f64).powi(2) / 4.0).exp() * 20.0
            })
            .collect();
        for &period in &[0.2, 0.5, 1.0, 2.0] {
            for &z in &[0.02, 0.05, 0.10] {
                let a = sdof_peaks(&acc, dt, period, z, ResponseMethod::Duhamel).unwrap();
                let b = sdof_peaks(&acc, dt, period, z, ResponseMethod::NigamJennings).unwrap();
                // Duhamel uses a rectangle rule: agreement is first-order in dt.
                let tol = 0.08;
                assert!(
                    (a.sd - b.sd).abs() / b.sd.max(1e-12) < tol,
                    "sd T={period} z={z}: duhamel {} nj {}",
                    a.sd,
                    b.sd
                );
                assert!(
                    (a.sa - b.sa).abs() / b.sa.max(1e-12) < tol,
                    "sa T={period} z={z}: duhamel {} nj {}",
                    a.sa,
                    b.sa
                );
            }
        }
    }

    #[test]
    fn more_damping_means_less_response() {
        let dt = 0.005;
        let acc = tone(1.0, dt, 8000);
        let mut last = f64::INFINITY;
        for &z in &[0.02, 0.05, 0.10, 0.20] {
            let p = sdof_peaks(&acc, dt, 1.0, z, ResponseMethod::NigamJennings).unwrap();
            assert!(p.sd < last, "damping {z} did not reduce response");
            last = p.sd;
        }
    }

    #[test]
    fn zero_damping_supported() {
        let dt = 0.01;
        let acc = tone(0.8, dt, 1000);
        let p = sdof_peaks(&acc, dt, 0.7, 0.0, ResponseMethod::NigamJennings).unwrap();
        assert!(p.sd.is_finite() && p.sd > 0.0);
    }

    #[test]
    fn spectrum_shapes() {
        let dt = 0.01;
        let acc = tone(2.0, dt, 3000);
        let periods = log_spaced_periods(0.1, 5.0, 30);
        let spec =
            response_spectrum(&acc, dt, &periods, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert_eq!(spec.len(), 30);
        assert!(!spec.is_empty());
        // Peak of SD-based pseudo-acceleration near the driving period 0.5 s.
        let psa = spec.psa();
        let max_idx = psa
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_period = spec.periods[max_idx];
        assert!(
            (peak_period - 0.5).abs() < 0.15,
            "psa peak at {peak_period} s, expected ~0.5 s"
        );
        // PSV = w * SD consistency
        let psv = spec.psv();
        #[allow(clippy::needless_range_loop)]
        for i in 0..spec.len() {
            let w = 2.0 * PI / spec.periods[i];
            assert!((psv[i] - w * spec.sd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn pseudo_velocity_close_to_velocity_at_moderate_damping() {
        // For light damping and mid periods PSV ≈ SV (classic result).
        let dt = 0.005;
        let n = 20_000;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                ((2.0 * PI * 1.1 * t).sin() + 0.6 * (2.0 * PI * 2.7 * t).sin())
                    * (-((t - 25.0) / 12.0).powi(2)).exp()
                    * 30.0
            })
            .collect();
        let p = sdof_peaks(&acc, dt, 1.0, 0.05, ResponseMethod::NigamJennings).unwrap();
        let w = 2.0 * PI / 1.0;
        let psv = w * p.sd;
        assert!((psv - p.sv).abs() / p.sv < 0.25, "psv {psv} sv {}", p.sv);
    }
}
