"""Print a SHA-256 over a fixed sweep of estimates, and the number of entries it covers, per part and in all.

The sweep covers:
  - the reference design and random designs with k = 4 and k = 6 groups;
  - each design's own cutoffs, then l_tau = 0, l_xi = inf and l_tau = inf;
  - a 23-point block and two of its points alone, at 37, 2000, 9000 and
    10 000 runs, under both estimators;
  - conditional_cp_batch on 500 rows of (q, d);
  - grid_eval on the reference design, with each estimate's point, over a
    symmetric lattice (one point of each mirrored pair evaluated) and an
    asymmetric one (every point evaluated), at 9000 runs (two chunks), and
    the conditioned estimator over a wide 9³ lattice on [-1, 1]³, where most
    rows are proven to lie in region C on every draw of a chunk;
  - a bench-sized min_cp_search on the reference design (9³ cube, 9² square,
    21-point profiles, 2000 runs);
  - the raw-data oracle's agreement_with_events on the reference design at
    three points, sigma 0.5 and 2, and 37, 2000 and 9000 runs.

Every estimate, SE and run count enters the digest as its float64 bytes, so
two checkouts or two thread counts print the same digest only if they
computed every number of the sweep with the same bits.  One line per part
comes first, then the line of the whole sweep.  The parts are: naive
estimates; conditioned estimates of one chunk (runs <= CHUNK_SIZE) and of
several chunks; the conditional_cp_batch rows; the grid_eval tables of each
estimator (two chunks per estimate); the search (one chunk per
estimate); and the oracle's raw estimate, SE, event rate, agreement and
worst residual-sum error.  A part's line tells which numbers moved between two checkouts:

    PYTHONPATH=src python3 scripts/estimate_digest.py
    ANCOVA_CP_THREADS=2 PYTHONPATH=src python3 scripts/estimate_digest.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np

from ancova_cp import (
    AncovaLayout,
    ConditionalKernel,
    ContrastSpec,
    agreement_with_events,
    build_geometry,
    critical_values,
    estimate_points,
    reference_design,
)
from ancova_cp.montecarlo import CHUNK_SIZE
from ancova_cp.search import GridSpec, SearchConfig, grid_eval, min_cp_search

RUNS = (37, 2000, 9000, 10_000)
ESTIMATORS = ("naive", "conditioned")
BLOCK = 23
ORACLE_POINTS = ((0.0, 0.1, 0.0), (0.1, -0.05, 0.15), (-0.3, 0.2, 0.05))
ORACLE_RUNS, ORACLE_SIGMAS = (37, 2000, 9000), (0.5, 2.0)


class Digest:
    """SHA-256 over the float64 bytes of every number fed to it, with a count of the entries."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.entries = 0

    def feed(self, values) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        self.sha.update(values.tobytes())
        self.entries += values.size

    def __str__(self) -> str:
        return f"{self.sha.hexdigest()}  {self.entries} entries"


class Parts:
    """A Digest of the whole sweep and one of each of its parts, fed the same numbers in the same order."""

    def __init__(self):
        self.total = Digest()
        self.parts: dict[str, Digest] = {}

    def feed(self, part: str, values) -> None:
        self.total.feed(values)
        self.parts.setdefault(part, Digest()).feed(values)

    def estimates(self, part: str, ests) -> None:
        for est in ests:
            self.feed(part, [est.estimate, est.se, est.runs])


def _random_design(k: int, seed: int):
    """An unbalanced design with k groups of shifted, rescaled normal covariates and m above 64."""
    rng = np.random.default_rng(seed)
    n = rng.integers(8, 30, k)
    n[0] += max(0, 65 + 2 * k - int(n.sum()))
    x = tuple(tuple(np.round(rng.normal(s, 12.0, size), 1).tolist()) for s, size in zip(rng.normal(70.0, 8.0, k), n))
    layout = AncovaLayout(k=k, n=tuple(int(v) for v in n), x=x)
    return layout, ContrastSpec.treatment_difference(layout, 1, 2)


def designs():
    for name, (layout, contrast) in (
        ("reference", reference_design()),
        ("k=4", _random_design(4, 41)),
        ("k=6", _random_design(6, 61)),
    ):
        geom = build_geometry(layout, contrast)
        cfg = critical_values(layout, alpha=0.05, sig_tau=0.10, sig_xi=0.10)
        yield name, geom, cfg


def cutoffs(cfg):
    yield cfg
    yield dataclasses.replace(cfg, l_tau=0.0)
    yield dataclasses.replace(cfg, l_xi=math.inf)
    yield dataclasses.replace(cfg, l_tau=math.inf)


def sweep(digest: Parts) -> None:
    for index, (_, geom, base) in enumerate(designs()):
        rng = np.random.default_rng(100 + index)
        # in units of the slope noise, so that every selection region occurs
        points = rng.uniform(-3.0, 3.0, (BLOCK, geom.k)) @ geom.v22_chol.T
        q = points[0] + rng.standard_normal((500, geom.k)) @ geom.v22_chol.T
        d = rng.chisquare(geom.m, 500)
        for cfg in cutoffs(base):
            for runs in RUNS:
                for estimator in ESTIMATORS:
                    part = estimator
                    if estimator == "conditioned":
                        part += ", one chunk" if runs <= CHUNK_SIZE else ", several chunks"
                    digest.estimates(part, estimate_points(points, geom, cfg, estimator, runs=runs, seed=runs))
                    for point in points[:2]:
                        digest.estimates(part, estimate_points([point], geom, cfg, estimator, runs=runs, seed=runs))
            digest.feed("conditional_cp_batch", ConditionalKernel(geom, cfg, points[0]).conditional_cp_batch(q, d))
    _, geom, cfg = next(designs())
    for bounds in ((-0.2, 0.2), (-0.1, 0.25)):
        for estimator in ("naive", "conditioned"):
            for point, est in grid_eval(GridSpec(bounds, 5, 9000, 6), estimator, geom, cfg):
                digest.feed(f"grid_eval, {estimator}", point.values)
                digest.estimates(f"grid_eval, {estimator}", [est])
    for point, est in grid_eval(GridSpec((-1.0, 1.0), 9, 9000, 7), "conditioned", geom, cfg):
        digest.feed("grid_eval, conditioned", point.values)
        digest.estimates("grid_eval, conditioned", [est])
    report = min_cp_search(
        SearchConfig(
            geom=geom,
            cfg=cfg,
            cube=GridSpec((-0.25, 0.25), 9, 2000, 4),
            square=GridSpec((-0.2, 0.2), 9, 2000, 4),
            profile_points=21,
        )
    )
    digest.estimates("min_cp_search", (est for _, est in report.cube_table))
    digest.estimates("min_cp_search", (est for _, est in report.square_table))
    for profile in report.profiles:
        digest.feed("min_cp_search", profile.cs)
        digest.estimates("min_cp_search", profile.estimates)
    digest.estimates("min_cp_search", (report.min1, report.min2, report.overall))
    digest.feed("min_cp_search", report.argmin.values)
    layout, contrast = reference_design()
    for point in ORACLE_POINTS:
        for sigma in ORACLE_SIGMAS:
            beta = sigma * np.concatenate([np.arange(1.0, layout.k + 1), point])
            for runs in ORACLE_RUNS:
                rep = agreement_with_events(beta, sigma, layout, geom, cfg, contrast.a, runs=runs, seed=runs)
                digest.feed(
                    "agreement_with_events",
                    [rep.raw.estimate, rep.raw.se, rep.event_rate, rep.agreement, rep.worst_rss_rel_error],
                )


def main() -> None:
    digest = Parts()
    sweep(digest)
    for name, part in digest.parts.items():
        print(f"{part}  {name}")
    print(digest.total)


if __name__ == "__main__":
    main()
