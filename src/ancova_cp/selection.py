"""Two-stage selection events and interval coverage in noise units.

The F tests live here: F form (block_f), per-draw thresholds (f_thresholds),
rejection radii (rejection_radii) and each test's acceptance probability in
closed form (acceptance, and its one-point adapter gate_probability); so do
the intervals' half-widths.

Everything here is scale free.  With sigma the error standard deviation,
gamma = beta / sigma and gamma_hat = beta_hat / sigma; q is the slope block
of gamma_hat and d = m * sigma_hat^2 / sigma^2 is the scaled residual sum of
squares of the separate-slopes fit.  sigma itself never appears at runtime.

The first-stage F statistic tests "all slopes zero" against the separate-
slopes model, the second-stage one tests "all slopes equal"; a test accepts
on F <= cutoff, so ties go to the smaller model.  block_f is the one place
that rule is applied in F form, and f_thresholds its other exact form: per
draw, the largest quadratic form whose F block_f accepts, so a form at most
that threshold takes block_f's decision, ties included.  The selected
interval is the zero-slopes one on region A (first test accepts), the
common-slope one on region B (first rejects, second accepts) and the
separate-slopes one on region C.

Coverage events are evaluated in a centered form that uses only the
estimation noise delta = gamma_hat - gamma, the true slopes, and d.  The
identities behind it:

    a'G_tau gamma_hat - a'gamma = a'G_tau delta - v21'V22^-1 (true slopes)
    a'G_xi  gamma_hat - a'gamma = a'G_xi  delta - w21'W22^-1 U (true slopes)
    a'gamma_hat - a'gamma       = a'delta

so the indicators never touch the intercept block of gamma, which is what
makes estimates invariant to it.  The point parts v21'V22^-1 s = s'vproj and
w21'W22^-1 U s = (U s)'wproj are formed once per point, in SlopeTerms.of.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy import special

from .design import GeometryBundle, TwoStageConfig
from .errors import STACK, VECTOR, DomainError, check_reals

__all__ = ["acceptance", "batch_events", "coverage_indicator", "gate_probability"]

# rejection radii: the margin a point clears on every draw, and the largest dim^2 cond(A) they cover
SURE_C_MARGIN, SURE_C_MAX_COND = 1.01, 1e8
# point terms, forms and F: one that overflows (inf, or NaN from inf - inf) fails every <=, so its test rejects
_OVERFLOW_REJECTS = np.errstate(over="ignore", invalid="ignore")


class EventBatch(NamedTuple):
    """Vectorized selection regions and raw coverage events for a block of draws."""

    in_a: np.ndarray
    in_b: np.ndarray
    covers_tau: np.ndarray
    covers_xi: np.ndarray
    covers_full: np.ndarray
    f_tau: np.ndarray
    f_xi: np.ndarray

    @property
    def covers_selected(self) -> np.ndarray:
        """Whether the interval the two-stage rule picks covers, per draw."""
        in_a, in_b = self.in_a, self.in_b
        return (in_a & self.covers_tau) | (in_b & self.covers_xi) | (~(in_a | in_b) & self.covers_full)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[..., j] * b[..., j] in a fixed order of elementwise operations.

    Unlike a BLAS product, it rounds every output element the same way for any
    number of rows, so a point evaluated in a block matches it evaluated alone.
    """
    out = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j] * b[..., j]
    return out


class SlopeNoise(NamedTuple):
    """The point-free parts of the two F quadratic forms for a block of draws.

    With q = s + z (true slopes s, slope noise z) and A symmetric,
    q'Aq = s'As + 2 s'(Az) + z'Az.  The z terms are computed once per block
    of draws and shared by every slope point evaluated against it, and the
    point only enters through s, so no slope - q difference ever cancels.
    Built row-major, with the bits of z @ V22^-1 (design.times_t): z is
    transposed once, to (k, n) rows, and multiplied from the left.
    """

    d: np.ndarray  # (n,) scaled residual sums of squares
    vz: np.ndarray  # (k, n) V22^-1 z, one row per coordinate
    zvz: np.ndarray  # (n,) z' V22^-1 z
    wuz: np.ndarray  # (k-1, n) W22^-1 U z
    zwz: np.ndarray  # (n,) (U z)' W22^-1 (U z)

    @classmethod
    def of(cls, z: np.ndarray, d: np.ndarray, geom: GeometryBundle) -> "SlopeNoise":
        zt = np.ascontiguousarray(z.T)
        vz, uz = geom.v22_inv @ zt, geom.u @ zt
        wuz = geom.w22_inv @ uz
        return cls(d, vz, _inner(vz.T, zt.T), wuz, _inner(wuz.T, uz.T))


class SlopeTerms(NamedTuple):
    """The draw-free parts of the F quadratic forms and interval centres at slope points s (P, k).

    The cross term 2 s'(Az) is summed as sum_j (2 s_j)(Az)_j: doubling is exact.
    """

    two_s: np.ndarray  # (P, k) 2 s
    svs: np.ndarray  # (P, 1) s' V22^-1 s
    two_us: np.ndarray  # (P, k-1) 2 U s
    usu: np.ndarray  # (P, 1) (U s)' W22^-1 (U s)
    vs: np.ndarray  # (P, 1) s' vproj, the point part of the zero-slopes centre
    wus: np.ndarray  # (P, 1) (U s)' wproj, the point part of the common-slope centre

    @classmethod
    @_OVERFLOW_REJECTS
    def of(cls, slopes: np.ndarray, geom: GeometryBundle) -> "SlopeTerms":
        us = _inner(slopes[:, None, :], geom.u)
        svs, vs = _inner(_inner(slopes[:, None, :], geom.v22_inv), slopes), _inner(slopes, geom.vproj)
        usu, wus = _inner(_inner(us[:, None, :], geom.w22_inv), us), _inner(us, geom.wproj)
        return cls(2.0 * slopes, svs[:, None], 2.0 * us, usu[:, None], vs[:, None], wus[:, None])


def _f_scales(geom: GeometryBundle) -> tuple[float, float]:
    """m / df of each test, so that F = quad (m / df) / d."""
    return geom.m / geom.k, geom.m / (geom.k - 1)


@_OVERFLOW_REJECTS
def quad_form(noise: SlopeNoise, terms: SlopeTerms, test: int, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """One test's form (s + z)' A (s + z) for every (row of s, draw) pair, into out (P, n); term is scratch.

    Test 0 (all slopes zero) has A = V22^-1; test 1 (all slopes equal) forms W22^-1 on U (s + z).
    """
    two_s, s_mat_s, mat_z, z_mat_z = (
        (terms.two_s, terms.svs, noise.vz, noise.zvz) if test == 0 else (terms.two_us, terms.usu, noise.wuz, noise.zwz)
    )
    np.multiply(two_s[:, :1], mat_z[0], out=out)
    for j in range(1, two_s.shape[1]):
        out += np.multiply(two_s[:, j : j + 1], mat_z[j], out=term)
    out += s_mat_s
    out += z_mat_z
    return out


@_OVERFLOW_REJECTS
def block_f(noise: SlopeNoise, terms: SlopeTerms, geom: GeometryBundle, cfg: TwoStageConfig):
    """Both test decisions at slope points against shared draws, with their F statistics and forms.

    Returns (accept_tau, accept_xi, f_tau, f_xi, quad_v, quad_w), each (P, n),
    with F = quad (m / df) / d and acceptance on F <= cutoff: the one place
    that rule is applied in F form (f_thresholds is its other exact form).
    """
    shape = (len(terms.two_s), len(noise.d))
    f_tau, f_xi = np.empty(shape), np.empty(shape)
    quad_v, quad_w = (quad_form(noise, terms, test, np.empty(shape), f) for test, f in ((0, f_tau), (1, f_xi)))
    scale_tau, scale_xi = _f_scales(geom)
    np.multiply(quad_v, scale_tau, out=f_tau)
    f_tau /= noise.d
    np.multiply(quad_w, scale_xi, out=f_xi)
    f_xi /= noise.d
    return f_tau <= cfg.l_tau, f_xi <= cfg.l_xi, f_tau, f_xi, quad_v, quad_w


def acceptance(terms: SlopeTerms, geom: GeometryBundle, cfg: TwoStageConfig, live=None) -> np.ndarray:
    """(P, 2): Pr(F <= cutoff) of the first and the second test at the points of ``terms``, in closed form.

    F is noncentral F (Johnson, Kotz & Balakrishnan, Continuous Univariate Distributions vol. 2, ch. 30): for the
    all-slopes-zero test F'(k, m, s'V22^-1 s), for the equal-slopes test F'(k - 1, m, (U s)'W22^-1 (U s)).  Only the
    entries of ``live`` (P, 2), if given, are computed; the others read 0.0.  ncfdtr returns NaN past a
    noncentrality of about 1e19, or an overflowing one, where the probability is 0 at a finite cutoff: 0.0 there.
    """
    accept = np.zeros((len(terms.svs), 2))
    for test, lam, cutoff in ((0, terms.svs[:, 0], cfg.l_tau), (1, terms.usu[:, 0], cfg.l_xi)):
        rows = slice(None) if live is None else live[:, test]
        accept[rows, test] = special.ncfdtr(geom.k - test, geom.m, lam[rows], cutoff)
    return np.fmax(accept, 0.0, out=accept)  # NaN to 0.0


def gate_probability(point, geom: GeometryBundle, cfg: TwoStageConfig, which: str = "tau") -> float:
    """Pr(F <= cutoff) of one selection test at a slope point (k numbers, or a SlopePoint): ``which`` "tau" is
    the all-slopes-zero test, "xi" the equal-slopes test; the one-point adapter over ``acceptance``."""
    if which not in ("tau", "xi"):
        raise DomainError(f'which must be "tau" or "xi", got {which!r}')
    cfg.check_design(geom.k, geom.m)
    slopes = check_reals("slope point", getattr(point, "values", point), geom.k, VECTOR)
    test, terms = int(which == "xi"), SlopeTerms.of(slopes[None, :], geom)
    return float(acceptance(terms, geom, cfg, np.array([[test == 0, test == 1]]))[0, test])


_INF_BITS = np.array(np.inf).view(np.int64)


def f_thresholds(d: np.ndarray, geom: GeometryBundle, cfg: TwoStageConfig) -> np.ndarray:
    """(2, n): per test and draw j, the largest double Q_j whose F, formed as block_f forms it, is <= the cutoff.

    F = fl(fl(quad (m / df)) / d_j) is nondecreasing in quad, so quad <= Q_j exactly when block_f accepts, ties
    included.  Nonnegative doubles order as their int64 bit patterns, and Q_j is found by halving on them.  The
    estimate cutoff d_j df / m lies within 2 patterns of Q_j in the normal range (design-like d, 8192 draws), so a
    bracket of 3 either side takes three halvings; where it misses (subnormal or overflowing forms), the bracket
    reaches 0.0 or inf, which takes up to 63.  Needs d > 0 (TwoStageConfig keeps cutoffs in [0, inf]); an infinite
    cutoff gives inf.
    """
    scale, cutoff = np.array(_f_scales(geom))[:, None], np.array([[cfg.l_tau], [cfg.l_xi]])

    def passes(bits):
        return (bits.view(float) * scale) / d <= cutoff

    with np.errstate(over="ignore"):  # a form whose F overflows to inf fails
        guess = np.minimum(cutoff * d / scale, np.finfo(float).max).view(np.int64)
        lo, hi = np.maximum(guess - 3, 0), np.minimum(guess + 3, _INF_BITS)
        lo_ok, hi_ok = passes(lo), passes(hi)
        # 0.0 always passes; inf passes only an infinite cutoff
        lo, hi = np.where(hi_ok, hi, np.where(lo_ok, lo, 0)), np.where(hi_ok, _INF_BITS, np.where(lo_ok, hi, lo))
        while (gap := hi - lo).max() > 1:
            mid = lo + gap // 2
            ok = passes(mid)
            lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    return lo.view(float)


def rejection_radii(geom: GeometryBundle, noise: SlopeNoise, limits: np.ndarray) -> np.ndarray:
    """Radii of sqrt(s'V22^-1 s) and sqrt((U s)'W22^-1 (U s)) past which test 1 and test 2 reject on every draw.

    A test rejects on draw j exactly when its computed form exceeds Q_j, its row of ``limits`` (f_thresholds).  With
    A = V22^-1 (W22^-1 on U s alike), sigma = sqrt(s'As) and r_j = sqrt(zvz_j), quad_v >= (sigma - r_j)^2 for
    sigma >= r_j.  The radius max_j max(M r_j, r_j + sqrt(M) sqrt(Q_j)), M = SURE_C_MARGIN, makes sigma >= M r_j and
    (sigma - r_j)^2 >= M Q_j on every draw; rounding moves the computed form by at most about 4 dim^2 cond(A) eps
    (2M / (M - 1))^2 (sigma - r_j)^2, under 0.4 % of it while dim^2 cond(A) <= SURE_C_MAX_COND, so the form exceeds
    Q_j, 0 included.  Past that bound, or at an infinite cutoff (Q_j = inf), the radius is inf.
    """
    r = np.sqrt([noise.zvz, noise.zwz])
    radii = np.maximum(SURE_C_MARGIN * r, r + math.sqrt(SURE_C_MARGIN) * np.sqrt(limits)).max(axis=1)
    sound = [len(form) ** 2 * np.linalg.cond(form) <= SURE_C_MAX_COND for form in (geom.v22_inv, geom.w22_inv)]
    return np.where(sound, radii, math.inf)


def half_widths(geom: GeometryBundle, cfg: TwoStageConfig) -> tuple[float, float, float]:
    """Zero-slopes, common-slope, separate-slopes half-widths per sqrt(quad_v + d), sqrt(quad_w + d), sqrt(d).

    In sds of each centre given q: sqrt(v_star), sqrt(w_cond), sqrt(v_star).  Residual df m + k, m + k - 1, m.
    """
    m, k = geom.m, geom.k
    return (
        cfg.t_mk / math.sqrt(m + k),
        cfg.t_mk1 * math.sqrt(geom.w_star / (m + k - 1)) / math.sqrt(geom.w_cond),
        cfg.t_m * math.sqrt(geom.v11 / m) / math.sqrt(geom.v_star),
    )


class EventNoise(NamedTuple):
    """The point-free parts of batch_events for a block of draws: the slope noise's F parts, d and the noise
    parts of the three interval centres, a'G_tau delta, a'G_xi delta and a'delta."""

    noise: SlopeNoise
    tau: np.ndarray
    xi: np.ndarray
    full: np.ndarray

    @classmethod
    def of(cls, delta: np.ndarray, d: np.ndarray, geom: GeometryBundle) -> "EventNoise":
        return cls(SlopeNoise.of(delta[:, geom.k :], d, geom), delta @ geom.ga_tau, delta @ geom.ga_xi, delta @ geom.a)


def positive_d(d, draws: int) -> np.ndarray:
    """``d``, the scaled residual sums of squares of ``draws`` draws, checked by check_reals, if every one is
    positive (not 0.0 or -0.0), else DomainError."""
    d = check_reals("d", d, draws, VECTOR)
    if not d.min() > 0.0:
        raise DomainError(f"d must be positive, got {d.min()}")
    return d


def batch_events(
    delta: np.ndarray,
    d: np.ndarray,
    slopes: np.ndarray,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
) -> EventBatch:
    """Selection regions and the three interval-coverage events for a noise block.

    delta has one row per draw (the 2k-dimensional estimation noise), d is the
    vector of scaled residual sums of squares, slopes the true slope block of
    gamma: one point (k,) gives fields of shape (n,), a block of points (P, k)
    fields of shape (P, n), every point evaluated against the same draws.
    Intervals are closed, so coverage comparisons use <=.  All three go
    through check_reals, and every d must be positive.
    """
    cfg.check_design(geom.k, geom.m)
    slopes, delta = check_reals("slopes", slopes, geom.k), check_reals("delta", delta, 2 * geom.k, STACK)
    parts = EventNoise.of(delta, positive_d(d, len(delta)), geom)
    batch = events(parts, SlopeTerms.of(np.atleast_2d(slopes), geom), geom, cfg)
    return EventBatch(*(field[0] for field in batch)) if slopes.ndim == 1 else batch


def events(parts: EventNoise, terms: SlopeTerms, geom: GeometryBundle, cfg: TwoStageConfig) -> EventBatch:
    """batch_events, fields (P, n), on draws and points whose parts are formed already, so blocks can share them."""
    m, k, d = geom.m, geom.k, parts.noise.d
    in_a, accept_xi, f_tau, f_xi, quad_v, quad_w = block_f(parts.noise, terms, geom, cfg)
    in_b = ~in_a & accept_xi

    center_tau = parts.tau - terms.vs
    half_tau = cfg.t_mk * np.sqrt((d + quad_v) / (m + k)) * np.sqrt(geom.v_star)
    center_xi = parts.xi - terms.wus
    half_xi = cfg.t_mk1 * np.sqrt((d + quad_w) / (m + k - 1)) * np.sqrt(geom.w_star)
    half_full = cfg.t_m * np.sqrt(d / m) * np.sqrt(geom.v11)

    return EventBatch(
        in_a,
        in_b,
        np.abs(center_tau) <= half_tau,
        np.abs(center_xi) <= half_xi,
        np.broadcast_to(np.abs(parts.full) <= half_full, in_a.shape),
        f_tau,
        f_xi,
    )


def coverage_indicator(gamma_hat, d, geom: GeometryBundle, cfg: TwoStageConfig, gamma) -> bool:
    """Whether the interval picked by the two-stage rule covers a'gamma for one draw.

    The validated row adapter over batch_events: gamma_hat and gamma are vectors of 2k finite numbers, and d, the
    scaled residual sum of squares, must be positive and finite.
    """
    gamma_hat = check_reals("gamma_hat", gamma_hat, 2 * geom.k, VECTOR)
    gamma = check_reals("gamma", gamma, 2 * geom.k, VECTOR)
    ev = batch_events((gamma_hat - gamma)[None, :], [d], gamma[geom.k :], geom, cfg)
    return bool(ev.covers_selected[0])
