"""Two-stage selection events and interval coverage in noise units.

Everything here is scale free.  With sigma the error standard deviation,
gamma = beta / sigma and gamma_hat = beta_hat / sigma; q is the slope block
of gamma_hat and d = m * sigma_hat^2 / sigma^2 is the scaled residual sum of
squares of the separate-slopes fit.  sigma itself never appears at runtime.

The first-stage F statistic tests "all slopes zero" against the separate-
slopes model, the second-stage one tests "all slopes equal"; a test accepts
on F <= cutoff, so ties go to the smaller model.  The selected interval is
the zero-slopes one on region A (first test accepts), the common-slope one
on region B (first rejects, second accepts) and the separate-slopes one on
region C.

Coverage events are evaluated in a centered form that uses only the
estimation noise delta = gamma_hat - gamma, the true slopes, and d.  The
identities behind it:

    a'G_tau gamma_hat - a'gamma = a'G_tau delta - v21'V22^-1 (true slopes)
    a'G_xi  gamma_hat - a'gamma = a'G_xi  delta - w21'W22^-1 U (true slopes)
    a'gamma_hat - a'gamma       = a'delta

so the indicators never touch the intercept block of gamma, which is what
makes estimates invariant to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError

__all__ = [
    "ScaledSufficientStats",
    "SelectionOutcome",
    "f_statistics",
    "select_region",
    "covers_tau",
    "covers_xi",
    "covers_full",
    "coverage_indicator",
    "batch_events",
]

REGION_ZERO_SLOPES = "A"
REGION_COMMON_SLOPE = "B"
REGION_SEPARATE_SLOPES = "C"


@dataclass(frozen=True)
class ScaledSufficientStats:
    """gamma_hat with its slope block q and the scaled residual sum of squares d."""

    gamma_hat: np.ndarray
    q: np.ndarray
    d: float

    @classmethod
    def from_gamma_hat(cls, gamma_hat: np.ndarray, d: float) -> "ScaledSufficientStats":
        gamma_hat = np.asarray(gamma_hat, dtype=float)
        k = gamma_hat.shape[0] // 2
        return cls(gamma_hat=gamma_hat, q=gamma_hat[k:], d=float(d))


@dataclass(frozen=True)
class SelectionOutcome:
    region: str
    f_tau: float
    f_xi: float


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
        return np.where(self.in_a, self.covers_tau, np.where(self.in_b, self.covers_xi, self.covers_full))


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
    """

    d: np.ndarray  # (n,) scaled residual sums of squares
    vz: np.ndarray  # (k, n) V22^-1 z, one row per coordinate
    zvz: np.ndarray  # (n,) z' V22^-1 z
    wuz: np.ndarray  # (k-1, n) W22^-1 U z
    zwz: np.ndarray  # (n,) (U z)' W22^-1 (U z)

    @classmethod
    def of(cls, z: np.ndarray, d: np.ndarray, geom: GeometryBundle) -> "SlopeNoise":
        if geom.k < 2:
            raise DomainError("F statistics need at least two groups")
        vz = z @ geom.v22_inv
        uz = z @ geom.u.T
        wuz = uz @ geom.w22_inv
        return cls(d, vz.T.copy(), _inner(vz, z), wuz.T.copy(), _inner(wuz, uz))


def _quad(s: np.ndarray, mat: np.ndarray, mat_z: np.ndarray, z_mat_z: np.ndarray) -> np.ndarray:
    """(s + z)' mat (s + z) for every (row of s, draw) pair, shape (P, n)."""
    quad = _inner(s[:, None, :], mat_z.T[None])
    quad *= 2.0
    quad += _inner(_inner(s[:, None, :], mat), s)[:, None]
    quad += z_mat_z
    return quad


def block_f(noise: SlopeNoise, slopes: np.ndarray, geom: GeometryBundle):
    """F statistics and quadratic forms for slope points (P, k) against shared draws; each (P, n)."""
    quad_v = _quad(slopes, geom.v22_inv, noise.vz, noise.zvz)
    quad_w = _quad(_inner(slopes[:, None, :], geom.u), geom.w22_inv, noise.wuz, noise.zwz)
    f_tau = (geom.m / geom.k) * quad_v / noise.d
    f_xi = (geom.m / (geom.k - 1)) * quad_w / noise.d
    return f_tau, f_xi, quad_v, quad_w


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
    Intervals are closed, so coverage comparisons use <=.
    """
    m, k = geom.m, geom.k
    block = np.atleast_2d(np.asarray(slopes, dtype=float))
    f_tau, f_xi, quad_v, quad_w = block_f(SlopeNoise.of(delta[:, k:], d, geom), block, geom)
    in_a = f_tau <= cfg.l_tau
    in_b = ~in_a & (f_xi <= cfg.l_xi)

    center_tau = delta @ geom.ga_tau - _inner(block, geom.vproj)[:, None]
    half_tau = cfg.t_mk * np.sqrt((d + quad_v) / (m + k)) * np.sqrt(geom.v_star)
    center_xi = delta @ geom.ga_xi - _inner(_inner(block[:, None, :], geom.u), geom.wproj)[:, None]
    half_xi = cfg.t_mk1 * np.sqrt((d + quad_w) / (m + k - 1)) * np.sqrt(geom.w_star)
    center_full = delta @ geom.a
    half_full = cfg.t_m * np.sqrt(d / m) * np.sqrt(geom.v11)

    fields = (
        in_a,
        in_b,
        np.abs(center_tau) <= half_tau,
        np.abs(center_xi) <= half_xi,
        np.broadcast_to(np.abs(center_full) <= half_full, in_a.shape),
        f_tau,
        f_xi,
    )
    if np.ndim(slopes) == 1:
        fields = tuple(f[0] for f in fields)
    return EventBatch(*fields)


def _scalar_batch(stats: ScaledSufficientStats, geom: GeometryBundle, cfg, gamma, a) -> EventBatch:
    """Validate one draw and its true gamma, then evaluate its events as a one-row batch."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (2 * geom.k,):
        raise DomainError(f"gamma must have length {2 * geom.k}, got {gamma.shape}")
    if a is not None and not np.array_equal(np.asarray(a, dtype=float), geom.a):
        raise DomainError("contrast does not match the one the geometry was built with")
    if stats.d <= 0.0:
        raise DomainError(f"d must be positive, got {stats.d}")
    delta = (stats.gamma_hat - gamma)[None, :]
    return batch_events(delta, np.asarray([stats.d]), gamma[geom.k :], geom, cfg)


def f_statistics(stats: ScaledSufficientStats, geom: GeometryBundle) -> tuple[float, float]:
    """First- and second-stage F statistics of one draw."""
    if stats.d <= 0.0:
        raise DomainError(f"d must be positive, got {stats.d}")
    noise = SlopeNoise.of(np.asarray(stats.q, dtype=float)[None, :], np.asarray([stats.d]), geom)
    f_tau, f_xi, _, _ = block_f(noise, np.zeros((1, geom.k)), geom)
    return float(f_tau[0, 0]), float(f_xi[0, 0])


def select_region(
    stats: ScaledSufficientStats, geom: GeometryBundle, cfg: TwoStageConfig
) -> SelectionOutcome:
    """Apply the two-stage rule; ties (F equal to its cutoff) accept."""
    f_tau, f_xi = f_statistics(stats, geom)
    if f_tau <= cfg.l_tau:
        region = REGION_ZERO_SLOPES
    elif f_xi <= cfg.l_xi:
        region = REGION_COMMON_SLOPE
    else:
        region = REGION_SEPARATE_SLOPES
    return SelectionOutcome(region=region, f_tau=f_tau, f_xi=f_xi)


def covers_tau(stats, geom, cfg, gamma, a=None) -> bool:
    """Whether the zero-slopes interval covers a'gamma for this draw."""
    return bool(_scalar_batch(stats, geom, cfg, gamma, a).covers_tau[0])


def covers_xi(stats, geom, cfg, gamma, a=None) -> bool:
    """Whether the common-slope interval covers a'gamma for this draw."""
    return bool(_scalar_batch(stats, geom, cfg, gamma, a).covers_xi[0])


def covers_full(stats, geom, cfg, gamma, a=None) -> bool:
    """Whether the separate-slopes interval covers a'gamma for this draw."""
    return bool(_scalar_batch(stats, geom, cfg, gamma, a).covers_full[0])


def coverage_indicator(stats, geom, cfg, gamma, a=None) -> bool:
    """Whether the interval picked by the two-stage rule covers a'gamma."""
    return bool(_scalar_batch(stats, geom, cfg, gamma, a).covers_selected[0])
