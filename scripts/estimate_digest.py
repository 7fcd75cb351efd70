"""Print one SHA-256 over a fixed sweep of estimates, and the number of entries it covers.

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
    21-point profiles, 2000 runs).

Every estimate, SE and run count enters the digest as its float64 bytes, so
two checkouts or two thread counts print the same digest only if they
computed every number of the sweep with the same bits:

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
    build_geometry,
    critical_values,
    estimate_points,
    reference_design,
)
from ancova_cp.search import GridSpec, SearchConfig, grid_eval, min_cp_search

RUNS = (37, 2000, 9000, 10_000)
ESTIMATORS = ("naive", "conditioned")
BLOCK = 23


class Digest:
    """SHA-256 over the float64 bytes of every number fed to it, with a count of the entries."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.entries = 0

    def feed(self, values) -> None:
        values = np.ascontiguousarray(values, dtype=np.float64)
        self.sha.update(values.tobytes())
        self.entries += values.size

    def estimates(self, ests) -> None:
        for est in ests:
            self.feed([est.estimate, est.se, est.runs])


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


def sweep(digest: Digest) -> None:
    for index, (_, geom, base) in enumerate(designs()):
        rng = np.random.default_rng(100 + index)
        # in units of the slope noise, so that every selection region occurs
        points = rng.uniform(-3.0, 3.0, (BLOCK, geom.k)) @ geom.v22_chol.T
        q = points[0] + rng.standard_normal((500, geom.k)) @ geom.v22_chol.T
        d = rng.chisquare(geom.m, 500)
        for cfg in cutoffs(base):
            for runs in RUNS:
                for estimator in ESTIMATORS:
                    digest.estimates(estimate_points(points, geom, cfg, estimator, runs=runs, seed=runs))
                    for point in points[:2]:
                        digest.estimates(estimate_points([point], geom, cfg, estimator, runs=runs, seed=runs))
            digest.feed(ConditionalKernel(geom, cfg, points[0]).conditional_cp_batch(q, d))
    _, geom, cfg = next(designs())
    for bounds in ((-0.2, 0.2), ((-0.2, 0.2), (-0.1, 0.25), (-0.2, 0.2))):
        for estimator in ("naive", "conditioned"):
            for point, est in grid_eval(GridSpec(bounds, 5, 9000, 6), estimator, geom, cfg):
                digest.feed(point.values)
                digest.estimates([est])
    for point, est in grid_eval(GridSpec((-1.0, 1.0), 9, 9000, 7), "conditioned", geom, cfg):
        digest.feed(point.values)
        digest.estimates([est])
    report = min_cp_search(
        SearchConfig(
            geom=geom,
            cfg=cfg,
            cube=GridSpec((-0.25, 0.25), 9, 2000, 4),
            square=GridSpec((-0.2, 0.2), 9, 2000, 4),
            profile_points=21,
        )
    )
    digest.estimates(est for _, est in report.cube_table)
    digest.estimates(est for _, est in report.square_table)
    for profile in report.profiles:
        digest.feed(profile.cs)
        digest.estimates(profile.estimates)
    digest.estimates((report.min1, report.min2, report.overall))
    digest.feed(report.argmin.values)


def main() -> None:
    digest = Digest()
    sweep(digest)
    print(f"{digest.sha.hexdigest()}  {digest.entries} entries")


if __name__ == "__main__":
    main()
