"""Closed-form conditional coverage given the slope estimate and residual scale.

Conditionally on q (the slope block of gamma_hat) and d (the scaled residual
sum of squares), the selected region is fixed and the remaining randomness in
the coverage event is a single Gaussian coordinate, so the conditional
coverage probability is a difference of two normal CDF values.  Averaging
that difference over draws of (q, d) gives the same expectation as averaging
raw coverage indicators, with strictly smaller variance.

The three terms, with
gs = true slopes, e the data-dependent half-width of the selected interval:

  zero slopes   mean v21'V22^-1 gs,                        scale sqrt(v_star)
  common slope  mean w21'W22^-1 U gs + s21'V22^-1 (gs - q), scale sqrt(w_star - s21'V22^-1 s21)
  separate      mean v21'V22^-1 (gs - q),                   scale sqrt(v_star)

each active only on its selection region and zero elsewhere; each is one function
(_zero_slopes, _common_slope, _separate), applied only to its own region's cells.

On region C the term depends on the draw alone (mean -z'vproj with z = q - gs,
half-width from d), so every point evaluated against a chunk's draws shares its value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError, check_reals
from .selection import SlopeNoise, SlopeTerms, block_f, f_thresholds, quad_form

__all__ = ["ConditionalKernel", "KernelDraws"]

# the most region-A or region-B cells evaluated at once, which bounds a gather's memory
GATHER_CELLS = 4096
# a lone point evaluates region C on every draw, not gathered, when it holds at least this share:
# at points between (0, 0.1, 0) and (0.1, -0.05, 0.15), 8192 and 1808 draws, gathering was faster
# in 24 to 37 of 40 rounds at 78 to 84 % region C, 6 to 20 at 85 to 89 % and 1 to 4 at 91 %
DENSE_C_SHARE = 0.85
# region-C certification: the margin a point clears on every draw, and the largest dim^2 cond(A) it covers
SURE_C_MARGIN, SURE_C_MAX_COND = 1.01, 1e8


def _band(mu, half):
    """Phi(mu + half) - Phi(mu - half), floored at zero; overwrites half."""
    p = special.ndtr(mu + half)
    p -= special.ndtr(np.subtract(mu, half, out=half), out=half)
    return np.maximum(p, 0.0, out=p)


def _zero_slopes(geom, cfg, d, quad_v, mu):
    """Region A cells: the zero-slopes interval about mu = s'vproj / sqrt(v_star); overwrites quad_v."""
    half = np.sqrt(np.add(quad_v, d, out=quad_v), out=quad_v)
    half *= cfg.t_mk / math.sqrt(geom.m + geom.k)
    return _band(mu, half)


def _common_slope(geom, cfg, d, quad_w, wus, zs):
    """Region B cells: the common-slope interval about ((U s)'wproj - z'sproj) / sd_cond; overwrites quad_w."""
    sd_cond = math.sqrt(geom.w_cond)
    half = np.sqrt(np.add(quad_w, d, out=quad_w), out=quad_w)
    half *= cfg.t_mk1 * math.sqrt(geom.w_star / (geom.m + geom.k - 1)) / sd_cond
    mu = np.subtract(wus, zs)
    mu /= sd_cond
    return _band(mu, half)


def _separate(geom, cfg, d, zv):
    """Region C cells: the separate-slopes interval about -z'vproj / sqrt(v_star)."""
    root_v_star = math.sqrt(geom.v_star)
    half = np.sqrt(d)
    half *= cfg.t_m * math.sqrt(geom.v11 / geom.m) / root_v_star
    return _band(zv / -root_v_star, half)


def _sure_c_bounds(geom, cfg, noise) -> np.ndarray:
    """Radii of sqrt(s'V22^-1 s) and sqrt((U s)'W22^-1 (U s)) beyond which test 1 and test 2 reject on every draw.

    Each radius proves its own test's rejection, whatever the other form.  With A = V22^-1, sigma = sqrt(s'As) and
    r_j = sqrt(zvz_j), quad_v >= (sigma - r_j)^2 for sigma >= r_j (triangle inequality), and test 1 rejects on draw j
    once quad_v > l_tau d_j k / m; the W form and test 2 are alike.  The radius, max_j max(M r_j, r_j + sqrt(M cutoff
    d_j df / m)) with M = SURE_C_MARGIN, makes sigma >= M r_j and (sigma - r_j)^2 >= M cutoff d_j df / m hold on every
    draw, cutoff 0 included.  Rounding moves the computed form by at most about 4 dim^2 cond(A) eps (sigma + r_j)^2 <=
    4 dim^2 cond(A) eps (2M / (M - 1))^2 (sigma - r_j)^2: under 0.4 % of (sigma - r_j)^2, inside the margin, while
    dim^2 cond(A) <= SURE_C_MAX_COND.  Past that, or at cutoff inf, that radius is inf.
    """
    r = np.sqrt([noise.zvz, noise.zwz])
    cutoffs = np.array([[cfg.l_tau * geom.k], [cfg.l_xi * (geom.k - 1)]]) * (SURE_C_MARGIN / geom.m)
    radii = np.maximum(SURE_C_MARGIN * r, r + np.sqrt(noise.d * cutoffs)).max(axis=1)
    sound = [len(form) ** 2 * np.linalg.cond(form) <= SURE_C_MAX_COND for form in (geom.v22_inv, geom.w22_inv)]
    return np.where(sound, radii, math.inf)


class KernelDraws:
    """One chunk's draws as the kernel reads them, with the point-free work every kernel over them shares.

    The slope noise z = q - gs (n, k) and, from it and d (n,): noise, their
    SlopeNoise, and zs = z'sproj and zv = z'vproj, the draw parts of the
    interval centres.  ``shared`` forms the region-C row, the radii of
    _sure_c_bounds and the per-draw F thresholds on first use and keeps them,
    so draws kept for later estimates (montecarlo's per-search memo) form
    them once; every kernel evaluated against them needs their design and one config.
    """

    def __init__(self, z: np.ndarray, d: np.ndarray, geom: GeometryBundle):
        self.z, self.noise, self.zs, self.zv = z, SlopeNoise.of(z, d, geom), z @ geom.sproj, z @ geom.vproj
        self._shared = None

    def shared(self, geom: GeometryBundle, cfg: TwoStageConfig):
        """(region-C row (n,), radii (2,), thresholds (2, n) of f_thresholds), formed by the first call."""
        if self._shared is None:
            noise = self.noise
            region_c, radii = _separate(geom, cfg, noise.d, self.zv), _sure_c_bounds(geom, cfg, noise)
            self._shared = region_c, radii, f_thresholds(noise.d, geom, cfg)
        return self._shared


class ConditionalKernel:
    """Conditional coverage for one design and cutoff config at a block of true slope points.

    ``slopes`` is one point (k,) or a block of points (P, k); their
    SlopeTerms are formed once, here.  ``blocks`` evaluates runs of points
    against shared draws, taking both test decisions from block_f;
    ``conditional_cp_batch`` is the row adapter for a kernel built for one
    point, given the slope estimates q themselves.
    """

    def __init__(self, geom: GeometryBundle, cfg: TwoStageConfig, slopes):
        slopes = check_reals("slopes", slopes, geom.k)
        if slopes.ndim not in (1, 2):
            raise DomainError(f"slopes must be one point or a block of points, got shape {slopes.shape}")
        self.geom, self.cfg = geom, cfg
        self.slopes = np.atleast_2d(slopes)
        self._terms = SlopeTerms.of(self.slopes, geom)

    def blocks(self, draws: KernelDraws, step: int):
        """(rows, values) pairs: conditional coverage of the points ``rows`` (rows) against shared draws (columns).

        Each cell is evaluated only by its region's formula.  One point has
        nothing to share: both test decisions come from block_f, and its
        region-A, region-B and region-C draws are gathered and evaluated
        apart, except that region C is evaluated on every draw (and
        overwritten on the others) when it holds at least DENSE_C_SHARE of
        them.  Several points share the draws' region-C row, thresholds and
        radii (KernelDraws.shared).  A test accepts where its form is at most
        the draw's threshold, block_f's decision in its other exact form.
        Points past one of _sure_c_bounds' radii skip the quadratic form of
        the test that radius proves to reject: past the first, region A is
        empty and region B is every second-test accept; past the second,
        region B is empty.  The points come in groups of ``step``, each in
        point order, by class: past neither radius, past the first only, past
        the second only; a group's region-C cells take the shared row, and its
        region-A and region-B cells are evaluated in gathers of at most
        GATHER_CELLS, with the same bits as each point alone.  The last pair
        gives the region-C row, as one row, to every point past both radii.
        The groups share three work arrays: each group is valid until the next.
        """
        geom, cfg, noise, zs = self.geom, self.cfg, draws.noise, draws.zs
        d = noise.d
        mu_a, wus = self._terms.vs[:, 0] / math.sqrt(geom.v_star), self._terms.wus[:, 0]
        if len(self.slopes) == 1:
            # the shared path (region C on every draw) took 958 against 559 us per 8192 draws at (0, 0, 0),
            # 90 % region A, and 770 against 564 at (0, 0.1, 0), 48 % region C (60 interleaved rounds)
            in_a, ok_xi, values, _, quad_v, quad_w = block_f(noise, self._terms, geom, cfg)
            in_a, ok_xi, row = in_a[0], ok_xi[0], values[0]
            # region B: ok_xi and not in_a
            a, b = in_a.nonzero()[0], (ok_xi > in_a).nonzero()[0]
            if len(d) - len(a) - len(b) >= DENSE_C_SHARE * len(d):
                row[...] = _separate(geom, cfg, d, draws.zv)
            else:
                c = (~(in_a | ok_xi)).nonzero()[0]
                row[c] = _separate(geom, cfg, d.take(c), draws.zv.take(c))
            if len(a):
                row[a] = _zero_slopes(geom, cfg, d.take(a), quad_v.take(a), mu_a[0])
            if len(b):
                row[b] = _common_slope(geom, cfg, d.take(b), quad_w.take(b), wus[0], zs.take(b))
            yield [0], values
            return
        n = len(d)
        region_c, radii, limits = draws.shared(geom, cfg)
        # 0: past neither radius, 1: past the first only (test 0 rejects on every draw), 2: the second only, 3: both
        kind = (np.sqrt(np.hstack([self._terms.svs, self._terms.usu])) > radii) @ np.array([1, 2])
        work = [np.empty((min(step, np.count_nonzero(kind < 3)), n)) for _ in range(3)]
        for which, tests in ((0, (0, 1)), (1, (1,)), (2, (0,))):
            rest = np.flatnonzero(kind == which)
            for rows in (rest[i : i + step] for i in range(0, len(rest), step)):
                terms = SlopeTerms(*(field[rows] for field in self._terms))
                group, *quads = (w[: len(rows)] for w in work)
                # a test proven to reject on every draw accepts nowhere: False
                in_a, ok_xi = (
                    quad_form(noise, terms, test, quads[test], group) <= limits[test] if test in tests else np.False_
                    for test in (0, 1)
                )
                group[...] = region_c
                cells = group.reshape(-1)
                # (cells, formula, its per-cell, per-point and per-draw parts); region B: ok_xi and not in_a
                for mask, formula, quad, per_point, per_draw in (
                    (in_a, _zero_slopes, quads[0], mu_a[rows], ()),
                    (ok_xi > in_a, _common_slope, quads[1], wus[rows], (zs,)),
                ):
                    region = np.flatnonzero(mask)
                    for part in (region[i : i + GATHER_CELLS] for i in range(0, len(region), GATHER_CELLS)):
                        point, draw = np.divmod(part, n)
                        parts = (quad.take(part), per_point.take(point), *(x.take(draw) for x in per_draw))
                        cells[part] = formula(geom, cfg, d.take(draw), *parts)
                yield rows, group
        if (kind == 3).any():
            yield np.flatnonzero(kind == 3), region_c[None]

    def conditional_cp_batch(self, q, d) -> np.ndarray:
        """Conditional coverage of the selected interval, row-wise on q (n, k) against d (n,).

        Needs a kernel built for one slope point; every q must be finite and every d positive and finite.
        """
        if self.slopes.shape[0] != 1:
            raise DomainError("the row interface needs a kernel built for one slope point")
        q = check_reals("q", q, self.geom.k)
        d = check_reals("d", d, len(q))
        if q.ndim != 2 or d.ndim != 1 or not np.all(d > 0.0):
            raise DomainError(f"q must be (n, {self.geom.k}) and d (n,) and positive, got {q.shape} and {d}")
        return next(self.blocks(KernelDraws(q - self.slopes[0], d, self.geom), 1))[1][0]
