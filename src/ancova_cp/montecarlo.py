"""Monte Carlo estimators of the coverage probability of the selected interval.

Two estimators of the same quantity: the naive one averages raw coverage
indicators of simulated two-stage fits, the conditioned one averages the
closed-form conditional coverage given the slope estimate and residual
scale, which never has larger variance.

Randomness is organized as counter-based Philox streams keyed by
(seed, estimator tag, chunk index) and nothing else.  Runs are split into
fixed-size chunks; each chunk's noise is drawn once and every slope point of
a call is evaluated against it (common random numbers), in blocks of at most
BLOCK_CELLS (point, draw) cells.  Per-point moments are merged in chunk
order, so results are bit-identical for every thread count and block size,
and are fully determined by (seed, tag, runs, point, chunk size).  Estimates
at different points with the same seed share their draws on purpose; the
tags keep different estimators independent of each other.

True intercepts are fixed to zero internally: on every draw the coverage
indicator is a function of the estimation noise, the true slopes and the
residual scale only, so intercepts cannot change any estimate.  The
``intercepts`` override on the estimators exists for tests that pin down
exactly that invariance.
"""

from __future__ import annotations

import hashlib
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditional import ConditionalKernel
from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError
from .selection import ScaledSufficientStats, SlopeNoise, batch_events, block_f

__all__ = [
    "CHUNK_SIZE",
    "BLOCK_CELLS",
    "SlopePoint",
    "CoverageEstimate",
    "default_workers",
    "thread_pool",
    "sample_stats",
    "estimate_points",
    "estimate_naive",
    "estimate_conditioned",
    "gate_probability",
    "event_probabilities",
]

CHUNK_SIZE = 8192
BLOCK_CELLS = 2 * CHUNK_SIZE
THREADS_ENV_VAR = "ANCOVA_CP_THREADS"


@dataclass(frozen=True)
class SlopePoint:
    """A point in the scaled slope space (true slopes divided by sigma)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0 or not all(math.isfinite(v) for v in self.values):
            raise DomainError(f"slope point must be nonempty and finite, got {self.values}")

    @classmethod
    def of(cls, values) -> "SlopePoint":
        return cls(values=tuple(float(v) for v in values))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class CoverageEstimate:
    """A coverage (or gate) probability estimate with its reproducibility key."""

    estimate: float
    se: float
    runs: int
    estimator: str
    seed: int
    point: SlopePoint


def default_workers() -> int:
    """Worker count for chunk and grid fan-out, from ANCOVA_CP_THREADS (default 1)."""
    raw = os.environ.get(THREADS_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# (width, executor or None) of the enclosing top-level call
_ACTIVE: ContextVar[tuple | None] = ContextVar("ancova_cp_workers", default=None)


@contextmanager
def thread_pool(n_jobs=None):
    """(width, executor) for one top-level call; a call made inside another reuses its pool.

    ``n_jobs`` (default: ANCOVA_CP_THREADS) sets the thread count of a new
    pool; one worker means serial evaluation and no executor at all.
    """
    if _ACTIVE.get() is not None:
        yield _ACTIVE.get()
        return
    width = default_workers() if n_jobs is None else max(1, int(n_jobs))
    pool = ThreadPoolExecutor(max_workers=width) if width > 1 else None
    token = _ACTIVE.set((width, pool))
    try:
        yield width, pool
    finally:
        _ACTIVE.reset(token)
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _check_count(name: str, value, least: int) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
    return int(value)


def _chunk_sizes(runs) -> list[int]:
    full, rem = divmod(_check_count("runs", runs, 1), CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _stream(seed: int, tag: str, chunk: int) -> np.random.Generator:
    """Philox generator for one chunk of one estimator's draws."""
    key = int.from_bytes(hashlib.blake2b(tag.encode("ascii"), digest_size=8).digest(), "little")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key, chunk))
    return np.random.Generator(np.random.Philox(seq))


def _chi2(rng: np.random.Generator, df: int, size: int):
    return 2.0 * rng.standard_gamma(0.5 * df, size=size)


def _check_intercepts(intercepts, k):
    if intercepts is None:
        return
    arr = np.asarray(intercepts, dtype=float)
    if arr.shape != (k,) or not np.all(np.isfinite(arr)):
        raise DomainError(f"intercept override must be {k} finite values, got {intercepts!r}")


def _slope_points(points, k: int) -> list[SlopePoint]:
    out = [p if isinstance(p, SlopePoint) else SlopePoint.of(p) for p in points]
    for p in out:
        if len(p.values) != k:
            raise DomainError(f"slope point must have length {k}, got {len(p.values)}")
    return out


def sample_stats(
    point: SlopePoint, geom: GeometryBundle, rng: np.random.Generator, intercepts=None
) -> ScaledSufficientStats:
    """One draw of the scaled sufficient statistics at a true slope point.

    gamma_hat = gamma + L z with L the Cholesky factor of (X'X)^-1 and
    z standard normal, then d drawn as a chi-square with m degrees of
    freedom (twice a gamma variate of shape m/2).  The intercept block of
    gamma is zero unless overridden.
    """
    (point,) = _slope_points([point], geom.k)
    _check_intercepts(intercepts, geom.k)
    inter = np.zeros(geom.k) if intercepts is None else np.asarray(intercepts, dtype=float)
    delta, d = _draw_full(rng, geom, 1)
    return ScaledSufficientStats.from_gamma_hat(np.concatenate([inter, point.as_array()]) + delta[0], float(d[0]))


# ---------------------------------------------------------------------------
# the batch evaluation core: per-chunk draws, per-block values, one reducer
# ---------------------------------------------------------------------------


def _draw_slopes(rng, geom, size):
    """Slope noise z ~ N(0, V22) and d ~ chi2_m, all the conditioned and gate values need."""
    z = rng.standard_normal((size, geom.k)) @ geom.v22_chol.T
    return z, SlopeNoise.of(z, _chi2(rng, geom.m, size), geom)


def _draw_full(rng, geom, size):
    """The full 2k-dimensional estimation noise and d, for the raw coverage events."""
    return rng.standard_normal((size, 2 * geom.k)) @ geom.noise_chol.T, _chi2(rng, geom.m, size)


def _event_values(slopes, draws, geom, cfg):
    ev = batch_events(*draws, slopes, geom, cfg)
    return np.stack([ev.covers_tau, ev.covers_tau & ev.in_a, ~ev.in_a], axis=1)


# estimator tag -> (per-chunk draws, per-draw values of a block of slope points)
_ESTIMATORS = {
    "naive": (_draw_full, lambda s, draws, geom, cfg: batch_events(*draws, s, geom, cfg).covers_selected),
    "conditioned": (_draw_slopes, lambda s, draws, geom, cfg: ConditionalKernel(geom, cfg, s).block(*draws)),
    "gate_tau": (_draw_slopes, lambda s, draws, geom, cfg: block_f(draws[1], s, geom)[0] <= cfg.l_tau),
    "gate_xi": (_draw_slopes, lambda s, draws, geom, cfg: block_f(draws[1], s, geom)[1] <= cfg.l_xi),
}


class _Moments(NamedTuple):
    """Count, mean and sum of squared deviations of values along their last axis."""

    n: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray) -> "_Moments":
        values = np.asarray(values, dtype=float)
        mean = values.mean(axis=-1)
        dev = values - mean[..., None]
        return cls(values.shape[-1], mean, np.square(dev, out=dev).sum(axis=-1))

    def merge(self, other: "_Moments") -> "_Moments":
        """Pairwise update of Chan, Golub & LeVeque (1983): no sum-of-squares cancellation."""
        n = self.n + other.n
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.n / n)
        return _Moments(n, mean, self.m2 + other.m2 + delta * delta * (self.n * other.n / n))


def _reduce(tag, draw, values, slopes, geom, cfg, runs, seed, n_jobs) -> _Moments:
    """Per-point moments of ``values`` over ``runs`` draws made by ``draw``.

    The one chunk loop.  The slope points (P, k) are cut into blocks of at
    most BLOCK_CELLS cells, and the blocks into at most as many contiguous
    groups as the pool has threads.  Each (chunk, group) task makes the
    chunk's draws from the stream (seed, tag, chunk) and evaluates its blocks
    against them, so a chunk is drawn once per group, never once per point,
    and tasks need no barrier between drawing and evaluating.  Every value
    depends only on its point and its chunk's draws, so neither grouping nor
    thread count can change a result; moments are merged in chunk order.
    """
    seed = _check_count("seed", seed, 0)
    sizes = _chunk_sizes(runs)
    step = max(1, BLOCK_CELLS // sizes[0])
    blocks = [slopes[i : i + step] for i in range(0, len(slopes), step)]

    def task(job):
        chunk, size, group = job
        draws = draw(_stream(seed, tag, chunk), geom, size)
        return [_Moments.of(values(block, draws, geom, cfg)) for block in group]

    total = None
    with thread_pool(n_jobs) as (width, pool):
        per = -(-len(blocks) // width)
        groups = [blocks[i : i + per] for i in range(0, len(blocks), per)]
        jobs = [(chunk, size, group) for chunk, size in enumerate(sizes) for group in groups]
        parts = (map if pool is None else pool.map)(task, jobs)
        for _ in sizes:
            mine = [part for _ in groups for part in next(parts)]
            chunk = _Moments(mine[0].n, *(np.concatenate(field) for field in list(zip(*mine))[1:]))
            total = chunk if total is None else total.merge(chunk)
    return total


def estimate_points(
    points,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    estimator: str = "conditioned",
    a=None,
    runs: int = 10_000,
    seed: int = 0,
    n_jobs=None,
) -> list[CoverageEstimate]:
    """Estimate at every slope point in one pass over shared draws.

    ``estimator`` is "naive", "conditioned", "gate_tau" or "gate_xi".  Every
    point is evaluated against the same chunks of draws, so estimates at
    different points are correlated (common random numbers) and each one is
    bit-identical to the same point estimated alone.
    The standard error is the unbiased sample standard deviation of the
    per-draw values divided by sqrt(runs).
    """
    if estimator not in _ESTIMATORS:
        raise DomainError(f"estimator must be one of {sorted(_ESTIMATORS)}, got {estimator!r}")
    if a is not None and not np.array_equal(np.asarray(a, dtype=float), geom.a):
        raise DomainError("contrast does not match the one the geometry was built with")
    points = _slope_points(points, geom.k)
    if not points:
        raise DomainError("need at least one slope point")
    slopes = np.asarray([p.values for p in points], dtype=float)
    moments = _reduce(estimator, *_ESTIMATORS[estimator], slopes, geom, cfg, runs, seed, n_jobs)
    var = moments.m2 / (moments.n - 1) if moments.n > 1 else np.zeros_like(moments.m2)
    se = np.sqrt(var / moments.n)
    return [
        CoverageEstimate(float(mean), float(err), moments.n, estimator, int(seed), point)
        for point, mean, err in zip(points, moments.mean, se)
    ]


def estimate_naive(
    point,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    a=None,
    runs: int = 10_000,
    seed: int = 0,
    intercepts=None,
    n_jobs=None,
) -> CoverageEstimate:
    """Average of raw coverage indicators over simulated two-stage fits.

    ``intercepts`` is validated but cannot move the estimate, because each
    indicator is a function of the noise, the true slopes and d alone.
    """
    _check_intercepts(intercepts, geom.k)
    return estimate_points([point], geom, cfg, "naive", a, runs, seed, n_jobs)[0]


def estimate_conditioned(
    point,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    a=None,
    runs: int = 10_000,
    seed: int = 0,
    intercepts=None,
    n_jobs=None,
) -> CoverageEstimate:
    """Average of conditional coverage values over draws of (q, d).

    q is drawn from its marginal N(true slopes, V22) and d as a chi-square
    with m degrees of freedom.
    """
    _check_intercepts(intercepts, geom.k)
    return estimate_points([point], geom, cfg, "conditioned", a, runs, seed, n_jobs)[0]


def gate_probability(
    point,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    which: str = "tau",
    runs: int = 10_000,
    seed: int = 0,
    n_jobs=None,
) -> CoverageEstimate:
    """Monte Carlo estimate of Pr(F <= cutoff) for one of the two selection tests.

    ``which`` is "tau" for the all-slopes-zero test, "xi" for the equal-
    slopes test.  Used as a diagnostic for search region restrictions, which
    rely on the relevant test rejecting with probability close to one on the
    region boundary.
    """
    if which not in ("tau", "xi"):
        raise DomainError(f'which must be "tau" or "xi", got {which!r}')
    return estimate_points([point], geom, cfg, f"gate_{which}", None, runs, seed, n_jobs)[0]


def event_probabilities(
    point, geom: GeometryBundle, cfg: TwoStageConfig, runs: int = 10_000, seed: int = 0
) -> dict:
    """Joint frequencies of the zero-slopes coverage event and the first-stage gate.

    Returns the empirical probabilities of S = {zero-slopes interval covers},
    of S intersected with the acceptance event of the first test, and of the
    first test rejecting, all from common draws.  Supports bound checks of
    the form 0 <= Pr(S) - Pr(S and accept) <= Pr(reject).
    """
    (point,) = _slope_points([point], geom.k)
    moments = _reduce("events", _draw_full, _event_values, point.as_array()[None, :], geom, cfg, runs, seed, 1)
    covers, covers_and_accept, reject = (float(v) for v in moments.mean[0])
    return {
        "covers_tau": covers,
        "covers_tau_and_accept": covers_and_accept,
        "reject_tau": reject,
        "runs": moments.n,
    }
