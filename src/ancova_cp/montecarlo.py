"""Monte Carlo estimators of the coverage probability of the selected interval.

Two estimators of the same quantity: the naive one averages raw coverage
indicators of simulated two-stage fits, the conditioned one averages the
closed-form conditional coverage given the slope estimate and residual
scale, which never has larger variance.  The selection tests' acceptance
probabilities are closed form (selection.gate_probability), not estimated.

Randomness is organized as counter-based Philox streams keyed by
(seed, estimator tag, chunk index) and nothing else.  Runs are split into
fixed-size chunks; each chunk's noise is drawn once per call, or once per
memo (min_cp_search passes one to every estimate, see _reduce), and
every slope point of a call is evaluated against it (common random
numbers), in blocks of at most BLOCK_CELLS (point, draw) cells.  Per-point moments are merged in chunk
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

import functools
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conditional import ConditionalKernel, KernelDraws
from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError, check_count, check_reals
from .selection import batch_events

__all__ = [
    "CHUNK_SIZE",
    "BLOCK_CELLS",
    "SlopePoint",
    "CoverageEstimate",
    "default_workers",
    "estimate_points",
    "estimate_naive",
    "estimate_conditioned",
    "event_probabilities",
]

CHUNK_SIZE = 8192
BLOCK_CELLS = 2 * CHUNK_SIZE
MAX_RUNS = 2**32  # the most runs of one estimate: a list of at most 2**19 chunk sizes
THREADS_ENV_VAR = "ANCOVA_CP_THREADS"


@dataclass(frozen=True)
class SlopePoint:
    """A point in the scaled slope space (true slopes divided by sigma); its values are stored as floats."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = check_reals("slope point", self.values, len(self.values))
        if values.ndim != 1 or not len(values):
            raise DomainError(f"slope point must be a nonempty vector, got shape {values.shape}")
        object.__setattr__(self, "values", tuple(values.tolist()))

    @classmethod
    def of(cls, values) -> "SlopePoint":
        if not np.iterable(values):
            raise DomainError(f"slope point must be a vector of numbers, got {values!r}")
        return cls(values=tuple(values))


@dataclass(frozen=True)
class CoverageEstimate:
    """A coverage probability estimate with its reproducibility key."""

    estimate: float
    se: float
    runs: int
    estimator: str
    seed: int
    point: SlopePoint


def default_workers(n_jobs=None) -> int:
    """Worker count for chunk fan-out: ``n_jobs``, a positive integer, or if None ANCOVA_CP_THREADS (1 when unset)."""
    if n_jobs is not None:
        return check_count("n_jobs", n_jobs, 1)
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if raw and not (raw.isdecimal() and int(raw) >= 1):
        raise DomainError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}")
    return int(raw or 1)


def _chunk_sizes(runs) -> list[int]:
    full, rem = divmod(check_count("runs", runs, 1, MAX_RUNS), CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _stream(seed: int, tag: str, chunk: int) -> np.random.Generator:
    """Philox generator for one chunk of one estimator's draws."""
    key = int.from_bytes(hashlib.blake2b(tag.encode("ascii"), digest_size=8).digest(), "little")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key, chunk))
    return np.random.Generator(np.random.Philox(seq))


def _check_intercepts(intercepts, k):
    if intercepts is not None and check_reals("intercept override", intercepts, k).ndim != 1:
        raise DomainError(f"intercept override must be one vector of {k} numbers")


def _slopes(points, k: int) -> np.ndarray:
    """``points`` (rows of k numbers, or SlopePoints) as a checked (P, k) float array, P >= 1."""
    if not isinstance(points, np.ndarray) and np.iterable(points):
        points = [p.values if isinstance(p, SlopePoint) else p for p in points]
    slopes = check_reals("slope point", points, k)
    if slopes.ndim != 2 or not len(slopes):
        raise DomainError(f"slope points must be a nonempty (P, {k}) array, got shape {slopes.shape}")
    return slopes


def _checked_point(values: list) -> SlopePoint:
    """The SlopePoint of a row of a (P, k) array _slopes has already checked, not checked again."""
    point = object.__new__(SlopePoint)
    object.__setattr__(point, "values", tuple(values))
    return point


# ---------------------------------------------------------------------------
# the batch evaluation core: per-chunk draws, per-block values, one reducer
# ---------------------------------------------------------------------------


def _draw_slopes(rng, geom, size):
    """Slope noise z ~ N(0, V22) and d ~ chi2_m as the kernel reads them, all the conditioned values need."""
    return KernelDraws(rng.standard_normal((size, geom.k)) @ geom.v22_chol.T, rng.chisquare(geom.m, size), geom)


def _draw_full(rng, geom, size):
    """The full 2k-dimensional estimation noise and d, for the raw coverage events."""
    return rng.standard_normal((size, 2 * geom.k)) @ geom.noise_chol.T, rng.chisquare(geom.m, size)


def _event_values(slopes, draws, geom, cfg):
    ev = batch_events(*draws, slopes, geom, cfg)
    return np.stack([ev.covers_tau, ev.covers_tau & ev.in_a, ~ev.in_a], axis=1)


def _each(values):
    """(rows, per-draw values) of each block of slope points, from a function of one block."""
    return lambda slopes, step, draws, geom, cfg: (
        (slice(i, i + step), values(slopes[i : i + step], draws, geom, cfg)) for i in range(0, len(slopes), step)
    )


# estimator tag -> (per-chunk draws, (rows, per-draw values) of each block of the slope points)
_ESTIMATORS = {
    "naive": (_draw_full, _each(lambda s, draws, geom, cfg: batch_events(*draws, s, geom, cfg).covers_selected)),
    # groups of two blocks' points, 4·CHUNK_SIZE cells (16 rows at 2000 runs), keep the kernel's work
    # arrays in L2: a search of a 9³ cube, a 9² square and 21-point profiles at 2000 runs took 62.6 ms
    # CPU, against 65.4 ms with 8 rows and 69.8 ms with 64 (median of 30 interleaved rounds, 2 vCPUs)
    "conditioned": (
        _draw_slopes,
        lambda slopes, step, draws, geom, cfg: ConditionalKernel(geom, cfg, slopes).blocks(draws, 2 * step),
    ),
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


def _reduce(tag, draw, values, slopes, geom, cfg, runs, seed, n_jobs, memo=None) -> _Moments:
    """Per-point moments of ``values`` over ``runs`` draws made by ``draw``.

    The one chunk loop.  Each chunk is one task: it makes the chunk's draws
    from the stream (seed, tag, chunk) and evaluates every slope point (P, k)
    against them, in blocks of at most BLOCK_CELLS cells, so a chunk is drawn
    once, never once per point; the block size comes from the chunk's own
    length, so a short tail chunk takes more points per block.  ``memo``, a
    dict owned by the caller, keeps each chunk's draws under (tag, seed,
    chunk, size, geom), the design compared by identity, so a chunk is drawn
    once per memo and design, not once per call (min_cp_search keeps one per
    search); the point-free work kept on the draws is keyed by config
    (KernelDraws.shared), so any sequence of calls over one memo gives each
    call's own bits.  Without a memo, a chunk's draws die with its task.
    ``values`` gets all the points, so it can share point-free work among its
    blocks, and yields (rows, block) pairs in any order; a one-row block may
    stand for several rows.
    While a task runs, NumPy's ufunc buffer (thread-local) is sized to the
    chunk, rounded up to a multiple of 16: a (P, 1) by (size,) broadcast
    shorter than the buffer goes through NumPy's buffered iterator, up to
    three times slower per call.  Every pass
    over a block is elementwise, so this changes speed, never bits, and the
    caller's setting is restored when the task ends.  ``n_jobs`` (default:
    ANCOVA_CP_THREADS), a positive integer, caps the threads; a call opens a
    pool only when it has more than one chunk to give them.  Every value
    depends only on its point and its chunk's draws, so the thread count
    cannot change a result; moments are merged in chunk order.
    """
    width = default_workers(n_jobs)
    seed = check_count("seed", seed, 0)
    jobs = list(enumerate(_chunk_sizes(runs)))

    def task(job):
        chunk, size = job
        key = (tag, seed, chunk, size, geom)
        old = np.setbufsize(-(-size // 16) * 16)
        try:
            kept = {} if memo is None else memo  # without a memo the draws die with the task
            if key not in kept:
                kept[key] = draw(_stream(seed, tag, chunk), geom, size)
            blocks = [(r, _Moments.of(b)) for r, b in values(slopes, max(1, BLOCK_CELLS // size), kept[key], geom, cfg)]
        finally:
            np.setbufsize(old)
        mean, m2 = (np.empty((len(slopes), *blocks[0][1].mean.shape[1:])) for _ in range(2))
        for rows, moments in blocks:
            mean[rows], m2[rows] = moments.mean, moments.m2
        return _Moments(size, mean, m2)

    width = min(width, len(jobs))
    if width == 1:
        return functools.reduce(_Moments.merge, map(task, jobs))
    pool = ThreadPoolExecutor(max_workers=width)
    try:
        return functools.reduce(_Moments.merge, pool.map(task, jobs))
    finally:
        pool.shutdown(cancel_futures=True)


def estimate_points(
    points,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
    estimator: str = "conditioned",
    runs: int = 10_000,
    seed: int = 0,
    n_jobs=None,
    memo=None,
) -> list[CoverageEstimate]:
    """Estimate at every slope point in one pass over shared draws.

    ``estimator`` is "naive" or "conditioned".  Every
    point is evaluated against the same chunks of draws, so estimates at
    different points are correlated (common random numbers) and each one is
    bit-identical to the same point estimated alone.
    The standard error is the unbiased sample standard deviation of the
    per-draw values divided by sqrt(runs).  ``memo`` (a dict, see _reduce)
    lets calls draw each chunk once per design, at any configs; it never changes an estimate.
    """
    if not isinstance(estimator, str) or estimator not in _ESTIMATORS:
        raise DomainError(f"estimator must be one of {sorted(_ESTIMATORS)}, got {estimator!r}")
    slopes = _slopes(points, geom.k)
    moments = _reduce(estimator, *_ESTIMATORS[estimator], slopes, geom, cfg, runs, seed, n_jobs, memo)
    var = moments.m2 / (moments.n - 1) if moments.n > 1 else np.zeros_like(moments.m2)
    se = np.sqrt(var / moments.n)
    return [
        CoverageEstimate(float(mean), float(err), moments.n, estimator, int(seed), _checked_point(row))
        for row, mean, err in zip(slopes.tolist(), moments.mean, se)
    ]


def estimate_naive(
    point,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
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
    return estimate_points([point], geom, cfg, "naive", runs, seed, n_jobs)[0]


def estimate_conditioned(
    point,
    geom: GeometryBundle,
    cfg: TwoStageConfig,
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
    return estimate_points([point], geom, cfg, "conditioned", runs, seed, n_jobs)[0]


def event_probabilities(
    point, geom: GeometryBundle, cfg: TwoStageConfig, runs: int = 10_000, seed: int = 0
) -> dict:
    """Joint frequencies of the zero-slopes coverage event and the first-stage gate.

    Returns the empirical probabilities of S = {zero-slopes interval covers},
    of S intersected with the acceptance event of the first test, and of the
    first test rejecting, all from common draws.  Supports bound checks of
    the form 0 <= Pr(S) - Pr(S and accept) <= Pr(reject).
    """
    moments = _reduce("events", _draw_full, _each(_event_values), _slopes([point], geom.k), geom, cfg, runs, seed, 1)
    covers, covers_and_accept, reject = (float(v) for v in moments.mean[0])
    return {
        "covers_tau": covers,
        "covers_tau_and_accept": covers_and_accept,
        "reject_tau": reject,
        "runs": moments.n,
    }
