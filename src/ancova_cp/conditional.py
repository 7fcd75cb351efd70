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
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .design import GeometryBundle, TwoStageConfig
from .errors import DomainError
from .selection import SlopeNoise, _inner, block_f

__all__ = ["ConditionalKernel"]


class ConditionalKernel:
    """Conditional coverage for one design and cutoff config at a block of true slope points.

    ``slopes`` is one point (k,) or a block of points (P, k).  ``block``
    evaluates every point against shared draws (P x n values);
    ``conditional_cp_batch`` is the row adapter for a kernel built for one
    point, given the slope estimates q themselves.
    """

    def __init__(self, geom: GeometryBundle, cfg: TwoStageConfig, slopes):
        slopes = np.asarray(slopes, dtype=float)
        if slopes.ndim not in (1, 2) or slopes.shape[-1] != geom.k:
            raise DomainError(f"slopes must have length {geom.k}, got {slopes.shape}")
        self.geom = geom
        self.cfg = cfg
        self.slopes = np.atleast_2d(slopes)
        self._mu_tau = _inner(self.slopes, geom.vproj)
        self._mu_xi0 = _inner(_inner(self.slopes[:, None, :], geom.u), geom.wproj)

    def _evaluate(self, z: np.ndarray, noise: SlopeNoise):
        """Conditional coverage of the selected interval, and the region masks.

        z = q - gs is the slope noise of each draw.  Every term of the module
        docstring is Phi((mu + e) / sd) - Phi((mu - e) / sd); each cell picks
        its region's mu / sd and e / sd, so Phi runs twice per cell.  Updates
        are in place to keep a block's temporaries few.
        """
        geom, cfg = self.geom, self.cfg
        m, k = geom.m, geom.k
        f_tau, f_xi, quad_v, quad_w = block_f(noise, self.slopes, geom)
        in_a = f_tau <= cfg.l_tau
        in_b = ~in_a & (f_xi <= cfg.l_xi)
        half = np.where(in_a, quad_v, np.where(in_b, quad_w, 0.0))
        del f_tau, f_xi, quad_v, quad_w
        root_v_star, sd_cond = math.sqrt(geom.v_star), math.sqrt(geom.w_cond)
        scale_a = cfg.t_mk / math.sqrt(m + k)
        scale_b = cfg.t_mk1 * math.sqrt(geom.w_star / (m + k - 1)) / sd_cond
        scale_c = cfg.t_m * math.sqrt(geom.v11 / m) / root_v_star
        half += noise.d
        np.sqrt(half, out=half)
        half *= np.where(in_a, scale_a, np.where(in_b, scale_b, scale_c))
        mu_a = (self._mu_tau / root_v_star)[:, None]
        mu_b = (self._mu_xi0[:, None] - z @ geom.sproj) / sd_cond
        mu = np.where(in_a, mu_a, np.where(in_b, mu_b, -(z @ geom.vproj) / root_v_star))
        p = special.ndtr(mu + half)
        mu -= half
        p -= special.ndtr(mu, out=mu)
        return np.maximum(p, 0.0, out=p), in_a, in_b

    def block(self, z: np.ndarray, noise: SlopeNoise) -> np.ndarray:
        """Conditional coverage of every slope point (rows) against shared draws (columns).

        z (n, k) is the slope noise q - gs of the draws and noise its
        quadratic-form parts, as built by SlopeNoise.of(z, d, geom).
        """
        return self._evaluate(z, noise)[0]

    def conditional_cp_batch(self, q, d) -> np.ndarray:
        """Conditional coverage of the selected interval, row-wise on q (n, k) against d (n,).

        Needs a kernel built for one slope point; every d must be positive.
        """
        q = np.asarray(q, dtype=float)
        d = np.asarray(d, dtype=float)
        if self.slopes.shape[0] != 1:
            raise DomainError("the row interface needs a kernel built for one slope point")
        if q.ndim != 2 or q.shape[1] != self.geom.k or d.shape != q.shape[:1]:
            raise DomainError(f"q must be (n, {self.geom.k}) and d (n,), got {q.shape} and {d.shape}")
        if not np.all(d > 0.0):
            raise DomainError("every d must be positive")
        z = q - self.slopes[0]
        return self.block(z, SlopeNoise.of(z, d, self.geom))[0]
