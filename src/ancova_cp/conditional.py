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

each active only on its selection region and zero elsewhere.

On region C the term depends on the draw alone (mean -z'vproj with z = q - gs,
half-width from d), so every point evaluated against a chunk's draws shares its value.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError
from .selection import SlopeNoise, SlopeTerms, block_f

__all__ = ["ConditionalKernel"]

# the most region-A and region-B cells gathered at once, which bounds a gather's memory
GATHER_CELLS = 4096


def _cells(geom, cfg, d, zv=0.0, *, in_a=False, ok_xi=False, quad_v=0.0, quad_w=0.0, vs=0.0, wus=0.0, zs=0.0):
    """Conditional coverage Phi(mu + e) - Phi(mu - e) of cells, each on the region its masks pick.

    mu and e are in units of the region's scale.  in_a marks first-test
    acceptance, ok_xi second-test acceptance where the first rejects; the
    defaults put every cell on region C.  Draw parts (d, zv = z'vproj,
    zs = z'sproj) and point parts (vs = s'vproj, wus = (U s)'wproj, from
    SlopeTerms) broadcast together.
    """
    m, k = geom.m, geom.k
    root_v_star, sd_cond = math.sqrt(geom.v_star), math.sqrt(geom.w_cond)
    scale_a = cfg.t_mk / math.sqrt(m + k)
    scale_b = cfg.t_mk1 * math.sqrt(geom.w_star / (m + k - 1)) / sd_cond
    scale_c = cfg.t_m * math.sqrt(geom.v11 / m) / root_v_star
    half = np.where(in_a, quad_v, np.where(ok_xi, quad_w, 0.0)) + d
    np.sqrt(half, out=half)
    half *= np.where(in_a, scale_a, np.where(ok_xi, scale_b, scale_c))
    mu = np.where(in_a, vs / root_v_star, np.where(ok_xi, (wus - zs) / sd_cond, -zv / root_v_star))
    p = special.ndtr(mu + half)
    mu -= half
    p -= special.ndtr(mu, out=mu)
    return np.maximum(p, 0.0, out=p)


class ConditionalKernel:
    """Conditional coverage for one design and cutoff config at a block of true slope points.

    ``slopes`` is one point (k,) or a block of points (P, k); their
    SlopeTerms are formed once, here.  ``blocks`` evaluates runs of points
    against shared draws, taking both test decisions from block_f;
    ``conditional_cp_batch`` is the row adapter for a kernel built for one
    point, given the slope estimates q themselves.
    """

    def __init__(self, geom: GeometryBundle, cfg: TwoStageConfig, slopes):
        slopes = np.asarray(slopes, dtype=float)
        if slopes.ndim not in (1, 2) or slopes.shape[-1] != geom.k or not np.all(np.isfinite(slopes)):
            raise DomainError(f"slopes must be finite points of length {geom.k}, got shape {slopes.shape}")
        self.geom = geom
        self.cfg = cfg
        self.slopes = np.atleast_2d(slopes)
        self._terms = SlopeTerms.of(self.slopes, geom)

    def blocks(self, z: np.ndarray, noise: SlopeNoise, step: int):
        """Conditional coverage of each run of ``step`` slope points (rows) against shared draws (columns).

        z (n, k) is the slope noise q - gs of the draws and noise its
        quadratic-form parts, as built by SlopeNoise.of(z, d, geom).  One point
        has nothing to share: Phi runs twice on each cell.  For more, region-C
        values are computed once per draw for all the kernel's points and
        copied into each block's region-C cells, and Phi runs only on region-A
        and region-B cells, with the same bits.  The blocks share four work
        arrays, block_f's outputs: each yielded block is valid until the next.
        """
        geom, cfg, d, zs, zv = self.geom, self.cfg, noise.d, z @ self.geom.sproj, z @ self.geom.vproj
        if len(self.slopes) == 1:
            in_a, ok_xi, _, _, quad_v, quad_w = block_f(noise, self._terms, geom, cfg)
            yield _cells(
                geom, cfg, d, zv, in_a=in_a, ok_xi=ok_xi, quad_v=quad_v, quad_w=quad_w,
                vs=self._terms.vs, wus=self._terms.wus, zs=zs,
            )
            return
        region_c = _cells(geom, cfg, d, zv)
        work = [np.empty((min(step, len(self.slopes)), len(d))) for _ in range(4)]
        for start in range(0, len(self.slopes), step):
            terms = SlopeTerms(*(field[start : start + step] for field in self._terms))
            in_a, ok_xi, f_tau, _, quad_v, quad_w = block_f(noise, terms, geom, cfg, [w[: len(terms.vs)] for w in work])
            cells = np.flatnonzero(ok_xi | in_a)
            f_tau[...] = region_c
            for part in (cells[i : i + GATHER_CELLS] for i in range(0, len(cells), GATHER_CELLS)):
                point = part // len(d)
                draw = part - point * len(d)
                values = _cells(
                    geom, cfg, d.take(draw), in_a=in_a.take(part), ok_xi=True, quad_v=quad_v.take(part),
                    quad_w=quad_w.take(part), vs=terms.vs.take(point), wus=terms.wus.take(point), zs=zs.take(draw),
                )
                f_tau.put(part, values)
            yield f_tau

    def conditional_cp_batch(self, q, d) -> np.ndarray:
        """Conditional coverage of the selected interval, row-wise on q (n, k) against d (n,).

        Needs a kernel built for one slope point; every q must be finite and every d positive and finite.
        """
        q = np.asarray(q, dtype=float)
        d = np.asarray(d, dtype=float)
        if self.slopes.shape[0] != 1:
            raise DomainError("the row interface needs a kernel built for one slope point")
        if q.ndim != 2 or q.shape[1] != self.geom.k or d.shape != q.shape[:1]:
            raise DomainError(f"q must be (n, {self.geom.k}) and d (n,), got {q.shape} and {d.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(d) & (d > 0.0))):
            raise DomainError("every q must be finite and every d positive and finite")
        z = q - self.slopes[0]
        return next(self.blocks(z, SlopeNoise.of(z, d, self.geom), 1))[0]
