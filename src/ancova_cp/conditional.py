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
(_zero_slopes, _common_slope, _separate), applied only to its own region's cells,
that reads its half-width from ``widths`` (selection.half_widths).

On region C the term depends on the draw alone (mean -z'vproj with z = q - gs,
half-width from d), so every point evaluated against a chunk's draws shares its value,
and its mean over the draws is exactly P(|T_m| <= t_m) (separate_mean).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .design import GeometryBundle, TwoStageConfig
from .errors import STACK, DomainError, check_reals
from .selection import SlopeNoise, SlopeTerms, acceptance, block_f, f_thresholds, half_widths
from .selection import positive_d, quad_form, rejection_radii

__all__ = ["ConditionalKernel", "KernelDraws"]

# a control is dropped where its residual sum of squares, after the controls kept before it, is at most this
# share of its own: the second of two collinear indicators leaves rounding (about 1e-15), a distinct one about
# 1 / runs
COLLINEAR_SHARE = 1e-10


def _band(mu, half):
    """Phi(mu + half) - Phi(mu - half), floored at zero; overwrites half."""
    p = special.ndtr(mu + half)
    p -= special.ndtr(np.subtract(mu, half, out=half), out=half)
    return np.maximum(p, 0.0, out=p)


def _zero_slopes(geom, widths, d, quad_v, mu):
    """Region A cells: the zero-slopes interval about mu = s'vproj / sqrt(v_star); overwrites quad_v."""
    half = np.sqrt(np.add(quad_v, d, out=quad_v), out=quad_v)
    half *= widths[0]
    return _band(mu, half)


def _common_slope(geom, widths, d, quad_w, wus, zs):
    """Region B cells: the common-slope interval about ((U s)'wproj - z'sproj) / sqrt(w_cond); overwrites quad_w."""
    half = np.sqrt(np.add(quad_w, d, out=quad_w), out=quad_w)
    half *= widths[1]
    mu = np.subtract(wus, zs)
    mu /= math.sqrt(geom.w_cond)
    return _band(mu, half)


def _separate(geom, widths, d, zv):
    """Region C cells: the separate-slopes interval about -z'vproj / sqrt(v_star)."""
    half = np.sqrt(d)
    half *= widths[2]
    return _band(zv / -math.sqrt(geom.v_star), half)


def separate_mean(geom: GeometryBundle, cfg: TwoStageConfig) -> float:
    """The exact mean of the region-C row over the draws: P(|T_m| <= t_m) at the config's own t_m."""
    return 1.0 - 2.0 * float(special.stdtr(geom.m, -cfg.t_m))


def _control_sums(edges, a, b, cells, xa):
    """(9, 2, rows): per row of a (rows, n) group, sums over its region-A cells and over its region-B cells.

    A: the first test accepts, x: the second accepts, v: the conditional coverage, c: the region-C row (the
    separate-slopes conditional coverage, which v equals on region C); region B is x and not A, and region-C
    cells accept neither test.  The pairs (A, B): 0 the cell counts, 1 to 5 the sums of v, c, v c, c^2 and v^2,
    then over the A cells where x accepts the sums of v (6), of c (7) and of 1 (8), whose B entries are 0.
    ``edges`` holds the flat index of each row's first cell, a and b the sorted flat indices of the region-A and
    region-B cells, and rows 0 and 1 of ``cells`` (8, len(a) + len(b) + 1) v and c at the A cells, then at the B
    cells; this fills the rest, the products and a last column of 0.0, which makes the last bound a valid index,
    and reduces all eight rows at once.  xa marks the A cells where x accepts.  Each row's cells in a region are
    one reduceat segment, whose bits do not depend on where it lies, and both kernel paths reduce here: a point's
    sums have the same bits in a group and alone.  A row with no cells in a region sums to 0 there, so the sums
    of several groups and chunks simply add (ConditionalKernel.chunk_sums).
    """
    na, end = len(a), len(a) + len(b)
    cells[:, end] = 0.0
    np.multiply(cells[:2], cells[1], out=cells[2:4])  # v c and c^2
    np.multiply(cells[0], cells[0], out=cells[4])
    cells[5:, na:end] = 0.0
    cells[7, :na] = xa
    np.multiply(cells[:2, :na], cells[7, :na], out=cells[5:7, :na])
    bounds = np.concatenate((a.searchsorted(edges), b.searchsorted(edges) + na, [end]))
    sums = np.empty((9, len(bounds)))
    np.add.reduceat(cells, bounds, axis=1, out=sums[1:])
    sums = sums[:, :-1]
    np.subtract(bounds[1:], bounds[:-1], out=sums[0])
    sums[1:, sums[0] == 0.0] = 0.0  # reduceat gives an empty segment the cell after it, not 0
    return sums.reshape(9, 2, -1)


class KernelDraws:
    """One chunk's draws for one design, as the kernel reads them, with the point-free work its kernels share.

    From the slope noise z = q - gs (n, k) and d (n,): noise, their SlopeNoise
    in (k, n) rows (from one transposed copy of z), and zs = z'sproj and
    zv = z'vproj, the draw parts of the interval centres; z is not kept.
    ``region_c`` forms, per config, the region-C row and its sums, and
    ``shared`` the per-draw F thresholds and the rejection radii, on first
    use and keeps them, so draws kept for later estimates (montecarlo's memo)
    form them once per config, whatever the order of the calls.
    """

    def __init__(self, z: np.ndarray, d: np.ndarray, geom: GeometryBundle):
        self.geom, self.noise, self.zs, self.zv = geom, SlopeNoise.of(z, d, geom), z @ geom.sproj, z @ geom.vproj
        self._region_c: dict = {}
        self._shared: dict = {}

    def region_c(self, cfg: TwoStageConfig):
        """(region-C row (n,), its sum and its sum of squares (2,)) for cfg."""
        if cfg not in self._region_c:
            c = _separate(self.geom, half_widths(self.geom, cfg), self.noise.d, self.zv)
            self._region_c[cfg] = c, np.array([c.sum(), np.square(c).sum()])
        return self._region_c[cfg]

    def shared(self, cfg: TwoStageConfig):
        """(thresholds (2, n) of f_thresholds, radii (2,) of rejection_radii) for cfg."""
        if cfg not in self._shared:
            limits = f_thresholds(self.noise.d, self.geom, cfg)
            self._shared[cfg] = limits, rejection_radii(self.geom, self.noise, limits)
        return self._shared[cfg]


class ConditionalKernel:
    """Conditional coverage for one design and cutoff config at a block of true slope points.

    ``slopes`` is one point (k,) or a block of points (P, k); their
    SlopeTerms (``terms``) are formed once, here.  ``blocks`` evaluates runs of points
    against shared draws, with the test decisions of block_f, and reduces them to
    region sums; ``chunk_sums`` adds a chunk's, and ``controlled`` forms the
    control-variate estimate from their totals over all runs, so this class owns
    the conditioned estimator from cell to estimate.  ``conditional_cp_batch``
    is the row adapter for a kernel built for one point, given the slope
    estimates q themselves.
    """

    def __init__(self, geom: GeometryBundle, cfg: TwoStageConfig, slopes):
        cfg.check_design(geom.k, geom.m)
        self.geom, self.cfg, self.widths = geom, cfg, half_widths(geom, cfg)
        self.slopes = np.atleast_2d(check_reals("slopes", slopes, geom.k))
        self.terms = SlopeTerms.of(self.slopes, geom)

    def __len__(self) -> int:
        """The number of slope points."""
        return len(self.slopes)

    def blocks(self, draws: KernelDraws, step: int):
        """(rows, a, b, v, sums): for each group of the points ``rows`` (rows) against shared draws (columns),
        the flat indices a and b of its region-A and region-B cells in the (rows, draws) group, their
        conditional coverage v, the A cells' then the B cells', and their region sums (_control_sums).

        Each cell is evaluated only by its region's formula; every other cell
        has the draws' region-C row (KernelDraws.region_c), which is not
        copied into the groups.  One point has nothing else to share: both
        test decisions come from block_f, and its region-A and region-B draws
        are gathered and evaluated apart.  Several points also share the
        draws' thresholds and radii (KernelDraws.shared): a test accepts
        where its form is at most the threshold, and a point past a radius
        skips the form of the test it proves to reject (past the first,
        region A is empty and region B is every second-test accept; past the
        second, region B is empty).  The points come in groups of ``step``,
        in point order within each class: past neither radius, the first
        only, the second only; each group's region-A and region-B cells are
        gathered and evaluated at once, with the same bits as each point
        alone.  A point past both radii has no region-A or region-B cell
        (neither test accepts), so it is in no group.
        """
        geom, widths, noise, zs = self.geom, self.widths, draws.noise, draws.zs
        d = noise.d
        mu_a, wus = self.terms.vs[:, 0] / math.sqrt(geom.v_star), self.terms.wus[:, 0]
        region_c = draws.region_c(self.cfg)[0]
        if len(self.slopes) == 1:
            # the shared path (region C on every draw) took 958 against 559 us per 8192 draws at (0, 0, 0),
            # 90 % region A, and 770 against 564 at (0, 0.1, 0), 48 % region C (60 interleaved rounds)
            in_a, ok_xi, _, _, quad_v, quad_w = block_f(noise, self.terms, geom, self.cfg)
            in_a, ok_xi = in_a[0], ok_xi[0]
            # region B: ok_xi and not in_a
            a, b = in_a.nonzero()[0], (ok_xi > in_a).nonzero()[0]
            cells = np.empty((8, len(a) + len(b) + 1))
            v = cells[0]
            if len(a):
                v[: len(a)] = _zero_slopes(geom, widths, d.take(a), quad_v.take(a), mu_a[0])
            if len(b):
                v[len(a) : -1] = _common_slope(geom, widths, d.take(b), quad_w.take(b), wus[0], zs.take(b))
            region_c.take(np.concatenate((a, b)), out=cells[1, :-1])
            yield [0], a, b, v[:-1], _control_sums(np.zeros(1, dtype=np.intp), a, b, cells, ok_xi.take(a))
            return
        n = len(d)
        limits, radii = draws.shared(self.cfg)
        # 0: past neither radius, 1: past the first only (test 0 rejects on every draw), 2: the second only, 3: both
        kind = (np.sqrt(np.hstack([self.terms.svs, self.terms.usu])) > radii) @ np.array([1, 2])
        work = [np.empty((min(step, np.count_nonzero(kind < 3)), n)) for _ in range(3)]
        edges = np.arange(0, len(work[0]) * n, n)  # each row's first flat index
        for which, tests in ((0, (0, 1)), (1, (1,)), (2, (0,))):
            rest = np.flatnonzero(kind == which)
            for rows in (rest[i : i + step] for i in range(0, len(rest), step)):
                terms = SlopeTerms(*(field[rows] for field in self.terms))
                scratch, *quads = (w[: len(rows)] for w in work)
                # a test proven to reject on every draw accepts nowhere: False
                in_a, ok_xi = (
                    quad_form(noise, terms, test, quads[test], scratch) <= limits[test] if test in tests else np.False_
                    for test in (0, 1)
                )
                # region B: ok_xi and not in_a; v and c: the values of the A cells, then of the B cells
                a, b = np.flatnonzero(in_a), np.flatnonzero(ok_xi > in_a)
                cells = np.empty((8, len(a) + len(b) + 1))
                v, c = cells[:2]
                # (cells, their first place in v, formula, its per-cell, per-point and per-draw parts)
                for region, start, formula, quad, per_point, per_draw in (
                    (a, 0, _zero_slopes, quads[0], mu_a[rows], ()),
                    (b, len(a), _common_slope, quads[1], wus[rows], (zs,)),
                ):
                    point, draw = np.divmod(region, n)
                    parts = (quad.take(region), per_point.take(point), *(x.take(draw) for x in per_draw))
                    at = slice(start, start + len(region))
                    v[at] = formula(geom, widths, d.take(draw), *parts)
                    region_c.take(draw, out=c[at])
                xa = ok_xi.reshape(-1).take(a) if 1 in tests else np.zeros(len(a), dtype=bool)
                yield rows, a, b, v[:-1], _control_sums(edges[: len(rows)], a, b, cells, xa)

    def chunk_sums(self, draws: KernelDraws, step: int):
        """(region sums (9, 2, P) of _control_sums, the region-C row's sum and sum of squares (2,)) over one chunk's
        draws, which add across chunks; a point in no group of ``blocks`` keeps zeros.  ``step`` points fill one
        montecarlo block; groups of two blocks' points, 4·CHUNK_SIZE cells (16 rows at 2000 runs), keep the work
        arrays in L2: a search of a 9³ cube, a 9² square and 21-point profiles at 2000 runs took 62.6 ms CPU,
        against 65.4 ms with 8 rows and 69.8 ms with 64 (median of 30 interleaved rounds, 2 vCPUs)."""
        sums = np.zeros((9, 2, len(self)))
        for rows, *_, part in self.blocks(draws, 2 * step):
            sums[..., rows] = part
        return sums, draws.region_c(self.cfg)[1]

    def controlled(self, n: int, regions: np.ndarray, free: np.ndarray):
        """Regression control-variate estimate, residual sum of squares and number of kept controls q, per point,
        from chunk_sums' ``regions`` and ``free``, added over all n runs.

        The controls are the acceptance indicators a = 1{region A} and x = 1{second test accepts}, with exact means
        from selection.acceptance, and the region-C row c, the separate-slopes conditional coverage, with exact mean
        p_c = P(|T_m| <= t_m) (separate_mean); each is used only where it varies (Glasserman, Monte Carlo Methods
        in Financial Engineering, 2003, sec. 4.1).  The mean of v and the co-moments are formed once, from the
        region sums over all n runs: with the sums S of v v, v a, v x, v c, a, a x, a c, x, x c, c and c c and the
        means m of (v, a, x, c), C = S - n m m'; so C_va = sum_A v - n_A mean(v), and v = c on region C gives
        sum v = sum_A v + sum_B v + sum c - sum_A c - sum_B c, and the sums of v v and v c likewise from the sums of
        v^2, v c and c^2.  In order, a control is kept where what the controls kept before it leave of its sum of
        squares is above COLLINEAR_SHARE of it (so above 0), and while n > q + 1 with it; a point with 1 to 3
        region-A/B cells in all keeps c alone, since each such cell could sit alone in its (a, x) pattern, be fit
        exactly and leave a residual of rounding.  Each kept control is swept out of the
        co-moments and of the mean-minus-p shifts (Gram-Schmidt), elementwise per point, so a point has the same
        bits in any block: what is left of the value's shift is v - beta'(x - p), and of its sum of squares the
        residual one; a value outside [0, 1], which the slope of a regression on a handful of runs can give, is
        clipped to it.  A point that keeps no control gets the plain mean and sum of squares.  A point with no
        region-A or region-B cell in any run has v = c on every draw, where the regression on c is exact: it gets
        p_c and a residual sum of squares of 0, exactly.
        """
        c_all, cc_all = free
        a, b = regions[:6, 0], regions[:6, 1]  # rows: cells, v, c, v c, c^2, v^2; over region A, over region B
        # sums of v v, v c, a, v a, a c, x, v x, x c, a x and c c, and the means of (v, a, x, c); on region C, v = c
        sums, shift = np.empty((10, a.shape[1])), np.empty((4, a.shape[1]))
        np.add(a[[5, 3]], b[[5, 3]], out=sums[:2])
        sums[:2] += cc_all - a[4] - b[4]
        sums[2:5], sums[8], sums[9] = a[:3], regions[8, 0], cc_all
        np.add(b[:3], regions[[8, 6, 7], 0], out=sums[5:8])
        shift[0], shift[1:3], shift[3] = a[1] + b[1] + (c_all - a[2] - b[2]), sums[2:6:3], c_all
        shift /= n
        m2 = sums[[[0, 3, 6, 1], [3, 2, 8, 4], [6, 8, 5, 7], [1, 4, 7, 9]]] - n * shift[:, None] * shift  # (4, 4, P)
        limits = COLLINEAR_SHARE * m2[[1, 2, 3], [1, 2, 3]]
        shift[1:3] -= acceptance(self.terms, self.geom, self.cfg, (limits[:2] > 0.0).T).T
        p_c = separate_mean(self.geom, self.cfg)
        shift[3] -= p_c
        kept, many = np.zeros(len(shift[0]), dtype=int), a[0] + b[0] > 3
        for j, limit, enough in zip((1, 2, 3), limits, (many, many, True)):
            keep = (m2[j, j] > limit) & enough & (n > kept + 2)
            gain = np.divide(m2[:, j], m2[j, j], out=np.zeros_like(shift), where=keep)
            m2 -= gain[:, None] * m2[j]
            shift -= gain * shift[j]
            kept += keep
        only_c = a[0] + b[0] == 0
        value = np.where(only_c, p_c, np.clip(shift[0], 0.0, 1.0))
        return value, np.where(only_c, 0.0, np.maximum(m2[0, 0], 0.0)), kept

    def conditional_cp_batch(self, q, d) -> np.ndarray:
        """Conditional coverage of the selected interval, row-wise on q (n, k) against d (n,).

        Needs a kernel built for one slope point; every q must be finite and every d positive and finite.
        """
        if self.slopes.shape[0] != 1:
            raise DomainError("the row interface needs a kernel built for one slope point")
        q = check_reals("q", q, self.geom.k, STACK)
        draws = KernelDraws(q - self.slopes[0], positive_d(d, len(q)), self.geom)
        _, a, b, v, _ = next(self.blocks(draws, 1))
        row = draws.region_c(self.cfg)[0].copy()
        row[np.concatenate((a, b))] = v
        return row
