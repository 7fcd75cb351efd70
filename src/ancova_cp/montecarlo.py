"""Monte Carlo estimators of the coverage probability of the selected interval.

Two estimators of the same quantity: the naive one averages raw coverage
indicators of simulated two-stage fits, the conditioned one averages the
closed-form conditional coverage given the slope estimate and residual
scale, which never has larger variance, and corrects the average with three
control variates whose means are closed form, not estimated: the two
selection tests' acceptance indicators (selection.acceptance) and the
separate-slopes conditional coverage, the region-C row every draw forms,
whose mean is P(|T_m| <= t_m) (conditional.separate_mean).  The naive SE
is the sample standard deviation over sqrt(runs); the conditioned one is
the residual standard deviation of the regression on the q controls a point
keeps, with runs - 1 - q degrees of freedom, over sqrt(runs)
(ConditionalKernel.controlled).  The value equals the region-C row outside
regions A and B, so its mean and every co-moment follow from each point's
region counts and sums over its region-A and region-B cells and the row's own
sums, which add across chunks (ConditionalKernel.chunk_sums).

Randomness is organized as SFC64 streams, one per (seed, estimator tag,
chunk index) and keyed by nothing else, made independent by SeedSequence
spawn keys (_stream).  Runs are split into
fixed-size chunks; each chunk's noise is drawn once per call, or once per
memo (min_cp_search passes one to every estimate, see _reduce), and
every slope point of a call is evaluated against it (common random
numbers), in blocks of at most BLOCK_CELLS (point, draw) cells.  Each chunk
returns its per-point sums as arrays, which are added in chunk order, so results
are bit-identical for every thread count and block size, and are fully
determined by (seed, tag, runs, point, chunk size).  Estimates at different
points with the same seed share their draws on purpose; the tags keep
different estimators independent of each other.  Importing the module fixes
glibc malloc's mmap and trim thresholds (_set_malloc_thresholds), so repeated
chunks reuse resident pages; no value depends on them.

True intercepts are fixed to zero internally: on every draw the coverage
indicator is a function of the estimation noise, the true slopes and the
residual scale only, so intercepts cannot change any estimate.  The
``intercepts`` override on the estimators exists for tests that pin down
exactly that invariance.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .conditional import ConditionalKernel, KernelDraws
from .design import GeometryBundle, TwoStageConfig, times_t
from .errors import STACK, VECTOR, DomainError, check_count, check_reals
from .selection import EventNoise, SlopeTerms, batch_events, events

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
# glibc's malloc thresholds, fixed at import: blocks up to 4 MiB, twice conditional._control_sums' (8, 4·CHUNK_SIZE
# + 1) doubles, come from the heap, which keeps up to 8 MiB of free top (1 / 2 MiB left a search 1145 faults a call)
MALLOC_MMAP_THRESHOLD, MALLOC_TRIM_THRESHOLD = 4 << 20, 8 << 20
# the user's own glibc malloc settings, which a later mallopt would silently override
MALLOC_ENV_VARS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


@dataclass(frozen=True)
class SlopePoint:
    """A point in the scaled slope space (true slopes divided by sigma); its values are stored as floats."""

    values: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(check_reals("slope point", self.values, None, VECTOR).tolist()))

    @classmethod
    def of(cls, values) -> "SlopePoint":
        return cls(values=values)


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


def _set_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds (mallopt(3) M_MMAP_THRESHOLD = -3, M_TRIM_THRESHOLD = -1), process-wide;
    True if the mmap call took, which alone stops glibc moving both (it never refuses the trim call).  glibc's own
    follow the largest freed mmap block, and it trims the freed top of the heap past them, so each chunk's
    temporaries landed on fresh pages (a 10 000-run estimate faulted 190-340 times a call).  A no-op off glibc,
    without mallopt or where the user set glibc's malloc variables or tunables; never raises."""
    if any(name in os.environ for name in MALLOC_ENV_VARS) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return False
    if not mallopt(-3, MALLOC_MMAP_THRESHOLD):
        return False
    mallopt(-1, MALLOC_TRIM_THRESHOLD)
    return True


MALLOC_THRESHOLDS_SET = _set_malloc_thresholds()  # whether this process runs under the thresholds above


@functools.cache
def _workers() -> ThreadPoolExecutor:
    """The chunk workers, made on first use and kept for the life of the process (a pool started by every call cost
    about 185 us and 6 page faults a call).  A thread starts when a call finds none idle, up to 32 or one per CPU if
    more; a forked child, which has none of the parent's threads, makes its own."""
    return ThreadPoolExecutor(max(32, os.cpu_count() or 1), thread_name_prefix="ancova-cp")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_workers.cache_clear)


def _chunk_sizes(runs) -> list[int]:
    full, rem = divmod(check_count("runs", runs, 1, MAX_RUNS), CHUNK_SIZE)
    return [CHUNK_SIZE] * full + ([rem] if rem else [])


def _stream(seed: int, tag: str, chunk: int) -> np.random.Generator:
    """SFC64 generator for one chunk of one estimator's draws.  The spawn key (tag, chunk) keeps the streams
    independent for any bit generator, so the cheapest serves: a 10 000-run estimate's draws took 630 (conditioned)
    and 1413 us (naive) against 890 and 1945 under Philox (thread time, 300 interleaved rounds, 2 vCPUs)."""
    key = int.from_bytes(hashlib.blake2b(tag.encode("ascii"), digest_size=8).digest(), "little")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(key, chunk))
    return np.random.Generator(np.random.SFC64(seq))


def _check_intercepts(intercepts, k):
    if intercepts is not None:
        check_reals("intercept override", intercepts, k, VECTOR)


def _slopes(points, geom: GeometryBundle, cfg: TwoStageConfig) -> np.ndarray:
    """``points`` (rows of k numbers, or SlopePoints) as a checked (P, k) float array, P >= 1, for a config made
    for the design (so k >= 2 and m >= 1)."""
    cfg.check_design(geom.k, geom.m)
    if not isinstance(points, np.ndarray) and np.iterable(points):
        points = [p.values if isinstance(p, SlopePoint) else p for p in points]
    return check_reals("slope point", points, geom.k, STACK)


def _checked_point(values: list) -> SlopePoint:
    """The SlopePoint of a row of a (P, k) array _slopes has already checked, not checked again."""
    point = object.__new__(SlopePoint)
    object.__setattr__(point, "values", tuple(values))
    return point


# ---------------------------------------------------------------------------
# the batch evaluation core: per-chunk draws, per-chunk sums, one reducer
# ---------------------------------------------------------------------------


def _draw_slopes(rng, geom, size):
    """Slope noise z ~ N(0, V22) and d ~ chi2_m as the kernel reads them, all the conditioned values need."""
    return KernelDraws(times_t(rng.standard_normal((size, geom.k)), geom.v22_chol), rng.chisquare(geom.m, size), geom)


def _draw_full(rng, geom, size):
    """The full 2k-dimensional estimation noise and d, for the raw coverage events."""
    return times_t(rng.standard_normal((size, 2 * geom.k)), geom.noise_chol), rng.chisquare(geom.m, size)


def _reduce(tag, draw, sums, geom, runs, seed, n_jobs, memo=None) -> tuple:
    """The sums over ``runs`` draws made by ``draw``: the chunks' ``sums(draws, step)`` tuples of arrays, added.

    The one chunk loop.  Each chunk is one task: it makes the chunk's draws
    from the stream (seed, tag, chunk) and passes them to ``sums`` with the
    number of points in a block of at most BLOCK_CELLS cells, so a chunk is
    drawn once, never once per point; the block size comes from the chunk's
    own length, so a short tail chunk takes more points per block.  ``memo``,
    a dict owned by the caller, keeps each chunk's draws under (tag, seed,
    chunk, size, geom), the design compared by identity, so a chunk is drawn
    once per memo and design, not once per call (min_cp_search keeps one per
    search); the point-free work kept on the draws is keyed by config
    (KernelDraws.shared), so any sequence of calls over one memo gives each
    call's own bits.  Without a memo, a chunk's draws die with its task.
    While a task runs, NumPy's ufunc buffer (thread-local) is sized to the
    chunk, rounded up to a multiple of 16: a (P, 1) by (size,) broadcast
    shorter than the buffer goes through NumPy's buffered iterator, up to
    three times slower per call.  Every pass
    over a block is elementwise, so this changes speed, never bits, and the
    caller's setting is restored when the task ends.  ``n_jobs`` (default:
    ANCOVA_CP_THREADS), a positive integer, caps the threads that work on the
    call at once: the calling thread and, only when it has more than one chunk
    to give them, up to min(n_jobs, chunks) - 1 of the process's chunk workers
    (_workers), each taking the next chunk until none is left (a helper that
    starts late finds none).  Every sum
    depends only on its chunk's draws, so the thread count cannot change a
    result; the chunks' tuples are added in chunk order.
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
            return sums(kept[key], max(1, BLOCK_CELLS // size))
        finally:
            np.setbufsize(old)

    def add(total, part):
        return tuple(x + y for x, y in zip(total, part))

    width = min(width, len(jobs))
    parts, order, stop = [None] * len(jobs), itertools.count(), []

    def work():  # the next chunk until none is left, or any thread's task has failed or been interrupted
        try:
            while not stop and (i := next(order)) < len(jobs):
                parts[i] = task(jobs[i])
        finally:
            stop.append(True)

    helpers = []
    try:
        for _ in range(width - 1):
            helpers.append(_workers().submit(work))
        work()
    finally:  # also when a submit fails: a helper not yet started is cancelled, a running one ends with its chunk
        stop.append(True)
        errors = [f.exception() for f in helpers if not f.cancel()]
    for error in filter(None, errors):
        raise error
    return functools.reduce(add, parts)


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
    The naive SE is sqrt(sample variance / runs).  The conditioned estimate
    is v - beta'(x - p), v the mean conditional coverage, x and p the sample
    and exact means of the q controls kept (ConditionalKernel.controlled): the
    two tests' acceptance indicators and the separate-slopes conditional coverage, with
    exact mean p_c = P(|T_m| <= t_m); its SE is sqrt(RSS / (runs - 1 - q) /
    runs), and one run has SE 0.  A point with no draw in region A or B has
    the separate-slopes value on every draw, so it reads p_c with SE 0,
    exactly; its true coverage lies within the sum of the two tests' exact
    acceptance probabilities (selection.acceptance) of p_c, which is the most
    that SE leaves out.  A point with 1 to 3 region-A/B cells in all keeps
    the separate-slopes control alone, since three controls can fit each such
    cell exactly and read SE 0: an SE of 0 means p_c exactly.  At 2000 runs a
    point mostly in region C reads its SE about 8 % low: at (0.1, -0.05,
    0.15), about 62 region-B cells per 2000 runs, the spread over 1500 seeds
    is 1.07 times the mean SE (0.98 at 10 000 runs).  ``memo`` (a dict, see
    _reduce) lets calls draw each chunk once per design, at any configs; it
    never changes an estimate.
    """
    if not isinstance(estimator, str) or estimator not in ("conditioned", "naive"):
        raise DomainError(f"estimator must be one of ['conditioned', 'naive'], got {estimator!r}")
    slopes = _slopes(points, geom, cfg)

    def naive_sums(draws, step):  # of the coverage indicators, per block of points; the point-free parts once
        parts, out = EventNoise.of(*draws, geom), np.empty(len(slopes))
        for i in range(0, len(slopes), step):
            block = SlopeTerms(*(field[i : i + step] for field in terms))
            out[i : i + step] = events(parts, block, geom, cfg).covers_selected.sum(axis=-1)
        return (out,)

    if estimator == "conditioned":
        kernel = ConditionalKernel(geom, cfg, slopes)
        regions, free = _reduce(estimator, _draw_slopes, kernel.chunk_sums, geom, runs, seed, n_jobs, memo)
        runs = int(runs)  # checked by _reduce
        mean, rss, q = kernel.controlled(runs, regions, free)
    else:  # the sums of the indicators are the sums of their squares; the points' terms once per call
        terms = SlopeTerms.of(slopes, geom)
        (total,) = _reduce(estimator, _draw_full, naive_sums, geom, runs, seed, n_jobs, memo)
        runs = int(runs)  # checked by _reduce
        mean, q = total / runs, 0
        rss = total - total * mean
    var = rss / (runs - 1 - q) if runs > 1 else np.zeros_like(rss)
    se = np.sqrt(var / runs)
    return [
        CoverageEstimate(float(value), float(err), runs, estimator, int(seed), _checked_point(row))
        for row, value, err in zip(slopes.tolist(), mean, se)
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
    slopes = _slopes([point], geom, cfg)

    def sums(draws, step):  # of the three indicators at the one point
        ev = batch_events(*draws, slopes, geom, cfg)
        return (np.stack([ev.covers_tau, ev.covers_tau & ev.in_a, ~ev.in_a]).sum(axis=-1),)

    (total,) = _reduce("events", _draw_full, sums, geom, runs, seed, 1)
    runs = int(runs)  # checked by _reduce
    covers, covers_and_accept, reject = (float(v) for v in total[:, 0] / runs)
    return {
        "covers_tau": covers,
        "covers_tau_and_accept": covers_and_accept,
        "reject_tau": reject,
        "runs": runs,
    }
