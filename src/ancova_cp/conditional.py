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

__all__ = ["phi", "ConditionalKernel"]


def phi(x):
    """Standard normal CDF (scipy's ndtr, which switches to erfc in the tails).

    Accurate to well below 1e-12 absolute error over the whole real line;
    works elementwise on arrays.
    """
    return special.ndtr(np.asarray(x, dtype=float))


class ConditionalKernel:
    """Conditional coverage for one design and cutoff config at a block of true slope points.

    ``slopes`` is one point (k,) or a block of points (P, k).  ``block``
    evaluates every point against shared draws (P x n values); the row and
    scalar methods serve a single point given q itself.
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

    # ------------------------------------------------------------------
    # single-point interface: q is the slope estimate itself
    # ------------------------------------------------------------------

    def _rows(self, q, d):
        if self.slopes.shape[0] != 1:
            raise DomainError("the row interface needs a kernel built for one slope point")
        z = np.asarray(q, dtype=float) - self.slopes[0]
        return self._evaluate(z, SlopeNoise.of(z, np.asarray(d, dtype=float), self.geom))

    def _scalar(self, q, d):
        q = np.asarray(q, dtype=float)
        if q.shape != (self.geom.k,):
            raise DomainError(f"q must have length {self.geom.k}, got {q.shape}")
        if not d > 0.0:
            raise DomainError(f"d must be positive, got {d}")
        p, in_a, in_b = self._rows(q[None, :], [float(d)])
        return float(p[0, 0]), bool(in_a[0, 0]), bool(in_b[0, 0])

    def p_tau(self, q, d) -> float:
        """Conditional coverage of the zero-slopes interval; zero off its region."""
        p, in_a, _ = self._scalar(q, d)
        return p if in_a else 0.0

    def p_xi(self, q, d) -> float:
        """Conditional coverage of the common-slope interval; zero off its region."""
        p, _, in_b = self._scalar(q, d)
        return p if in_b else 0.0

    def p_full(self, q, d) -> float:
        """Conditional coverage of the separate-slopes interval; zero off its region."""
        p, in_a, in_b = self._scalar(q, d)
        return 0.0 if in_a or in_b else p

    def conditional_cp(self, q, d) -> float:
        """Conditional coverage of the selected interval given (q, d)."""
        return self._scalar(q, d)[0]

    def conditional_cp_batch(self, q: np.ndarray, d: np.ndarray) -> np.ndarray:
        """conditional_cp evaluated row-wise on q (n, k) against d (n,)."""
        return self._rows(q, d)[0][0]
