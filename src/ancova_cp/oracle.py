"""Raw-data reference pipeline: simulate responses, fit, test, and check coverage.

This is the deliberately plain implementation the fast estimators are
validated against.  It works in response units: draws eps ~ N(0, sigma^2),
forms Y = X beta + eps, fits all three candidate models, computes the F
statistics from residual sums of squares, and checks interval coverage with
sigma-unit half-widths.  All its matrix quantities are computed here with
plain explicit inverses rather than shared with the geometry cache, so
agreement with the scale-free event path is a genuine cross-check.  Each
chunk's responses are drawn from the (seed, "oracle", chunk) stream and
fitted as one (runs, n_total) block.

Constrained fits use the projection identity: the least squares fit under
C'beta = 0 equals G beta_hat with G = I - (X'X)^-1 C (C'(X'X)^-1 C)^-1 C'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .design import AncovaLayout, TwoStageConfig, build_design, times_t
from .errors import VECTOR, DomainError, check_count, check_real, check_reals
from .montecarlo import CoverageEstimate, SlopePoint, _chunk_sizes, _stream
from .selection import EventNoise, SlopeTerms, events
from .selection import coverage_indicator  # noqa: F401  perfbench/spans.py traces the name

__all__ = ["AgreementReport", "estimate_cp_raw", "agreement_with_events"]

# The fits sum squares of about sigma^2, which leave the normal floats outside SIGMA_RANGE (at sigma 1e-170 every F
# is 0 / 0), and round at about 1e-16 of the responses X beta, under 1e-8 of the noise within SIGNAL_MAX sigmas (on
# the reference design the estimate moves at 1.8e14 sigmas and reads 1.0 at 1.8e17, where the coverage is 0.95).
SIGMA_RANGE, SIGNAL_MAX = (1e-100, 1e100), 1e8


@dataclass(frozen=True)
class _RawFit:
    """Simulated data sets fitted under all three candidate models.

    Each field has one row per data set; a single response vector gives
    coefficient vectors and scalar residual sums of squares.
    """

    beta_hat: np.ndarray
    rss_full: np.ndarray
    beta_tau: np.ndarray
    rss_tau: np.ndarray
    beta_xi: np.ndarray
    rss_xi: np.ndarray


class _RawPipeline:
    """Design pieces for repeated raw fits, built from the layout alone: ``rows`` the design in C order, fit's
    matrices in Fortran order, every array read-only.  _pipeline keeps one per layout.  SingularDesign if X'X is not
    positive definite."""

    def __init__(self, layout: AncovaLayout):
        k = layout.k
        x_design = build_design(layout)
        xtx_inv = np.linalg.inv(x_design.T @ x_design)
        c_tau = np.vstack([np.zeros((k, k)), np.eye(k)])
        c_xi = np.zeros((2 * k, k - 1))
        c_xi[k, :] = 1.0
        for j in range(k - 1):
            c_xi[k + 1 + j, j] = -1.0
        ident = np.eye(2 * k)
        self.k = k
        self.m = layout.m
        self.rows = x_design
        self.x_design = np.asfortranarray(x_design)
        self.xtx_inv = xtx_inv
        self.proj = np.asfortranarray(xtx_inv @ x_design.T)
        self.c_xi = c_xi
        self.v22_inv = np.linalg.inv(xtx_inv[k:, k:])
        self.w22_inv = np.linalg.inv(c_xi.T @ xtx_inv @ c_xi)
        self.g_tau = np.asfortranarray(ident - xtx_inv @ c_tau @ self.v22_inv @ c_tau.T)
        self.g_xi = np.asfortranarray(ident - xtx_inv @ c_xi @ self.w22_inv @ c_xi.T)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    def contrast_scalars(self, a: np.ndarray) -> tuple[float, float, float]:
        """(v11, v_star, w_star) for the contrast, from explicit inverses."""
        k = self.k
        xtx_inv = self.xtx_inv
        v11 = float(a @ xtx_inv @ a)
        v21 = xtx_inv[k:, :] @ a
        w21 = self.c_xi.T @ xtx_inv @ a
        v_star = v11 - float(v21 @ self.v22_inv @ v21)
        w_star = v11 - float(w21 @ self.w22_inv @ w21)
        return v11, v_star, w_star

    def fit(self, y: np.ndarray) -> _RawFit:
        """Fit responses of shape (runs, n_total), or one (n_total,) vector."""
        beta_hat = times_t(y, self.proj)
        beta_tau = times_t(beta_hat, self.g_tau)
        beta_xi = times_t(beta_hat, self.g_xi)

        def rss(beta):  # the residuals overwrite the C-ordered X beta, whose rows sum with the bits of y - X beta
            res = times_t(beta, self.x_design)
            np.subtract(y, res, out=res)
            return np.sum(np.square(res, out=res), axis=-1)

        return _RawFit(beta_hat, rss(beta_hat), beta_tau, rss(beta_tau), beta_xi, rss(beta_xi))


@functools.lru_cache(maxsize=8)
def _pipeline(layout: AncovaLayout) -> _RawPipeline:
    """The layout's _RawPipeline, built once and kept (up to 8 layouts); equal layouts build the same bits (a layout
    stores -0.0 as 0.0), so they share one.  A singular layout raises on every call."""
    return _RawPipeline(layout)


def _check_inputs(beta, sigma, layout: AncovaLayout, names=("beta", "sigma")) -> tuple[np.ndarray, float, _RawPipeline]:
    """beta and sigma as floats, and the layout's pipeline, if the raw fits resolve them (SIGMA_RANGE, SIGNAL_MAX),
    else DomainError naming ``names``."""
    beta, sigma = check_reals(names[0], beta, 2 * layout.k, VECTOR), check_real(names[1], sigma)
    if not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1]:
        lo, hi = SIGMA_RANGE
        raise DomainError(f"{names[1]} must be from {lo:g} to {hi:g}, where the raw fits' sums of squares stay "
                          f"normal floats, got {sigma}")
    pipe = _pipeline(layout)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing signal is refused below
        signal = float(np.abs(pipe.rows @ (beta / sigma)).max())
    if not signal <= SIGNAL_MAX:
        raise DomainError(f"{names[0]} is too large: the responses reach {signal:.3g} sigmas, more than the "
                          f"{SIGNAL_MAX:g} within which the raw fits' rounding stays under 1e-8 of the noise")
    return beta, sigma, pipe


def _raw_hits(pipe: _RawPipeline, cfg: TwoStageConfig, a, scalars, theta, fit: _RawFit) -> np.ndarray:
    """Whether the interval the two-stage rule picks covers theta, per fitted data set."""
    v11, v_star, w_star = scalars
    k, m = pipe.k, pipe.m
    s2_full = fit.rss_full / m
    f_tau = ((fit.rss_tau - fit.rss_full) / k) / s2_full
    f_xi = ((fit.rss_xi - fit.rss_full) / (k - 1)) / s2_full
    in_a = f_tau <= cfg.l_tau
    in_b = ~in_a & (f_xi <= cfg.l_xi)
    center = np.where(in_a, fit.beta_tau @ a, np.where(in_b, fit.beta_xi @ a, fit.beta_hat @ a))
    half = np.where(
        in_a,
        cfg.t_mk * np.sqrt(fit.rss_tau / (m + k)) * math.sqrt(v_star),
        np.where(
            in_b,
            cfg.t_mk1 * np.sqrt(fit.rss_xi / (m + k - 1)) * math.sqrt(w_star),
            cfg.t_m * np.sqrt(s2_full) * math.sqrt(v11),
        ),
    )
    return np.abs(center - theta) <= half


def _simulate(beta, sigma, layout, cfg, a, runs, seed, geom=None):
    """Common loop; returns an AgreementReport's fields: the raw estimate, the event path's coverage rate on the
    same noise and the share of runs where the two routes agree (both 0.0 without geom), and the worst relative
    error of the zero-slopes residual-sum identity.  Each chunk is folded into its counts of covering runs."""
    cfg.check_design(layout.k, layout.m)
    beta, sigma, pipe = _check_inputs(beta, sigma, layout)
    a, seed = check_reals("contrast", a, 2 * layout.k, VECTOR), check_count("seed", seed, 0)
    scalars = pipe.contrast_scalars(a)
    theta = float(a @ beta)
    gamma = beta / sigma
    terms = SlopeTerms.of(gamma[None, pipe.k :], geom) if geom is not None else None
    mean = times_t(beta, pipe.rows)  # the responses' mean, X beta

    def counts(chunk, size):
        """The chunk's covering raw runs, covering event runs, agreeing runs and worst residual-sum error; its
        arrays die on return, before the next chunk is drawn."""
        y = _stream(seed, "oracle", chunk).standard_normal((size, layout.n_total))
        y *= sigma  # the responses in place, with the bits of mean + sigma * eps: both operations commute
        y += mean
        fit = pipe.fit(y)
        hits = _raw_hits(pipe, cfg, a, scalars, theta, fit)
        slopes_hat = fit.beta_hat[:, pipe.k :]
        rss_tau_pred = fit.rss_full + np.sum((slopes_hat @ pipe.v22_inv) * slopes_hat, axis=1)
        worst = float(np.max(np.abs(fit.rss_tau - rss_tau_pred) / fit.rss_tau))
        if geom is None:
            return int(np.count_nonzero(hits)), 0, 0, worst
        # the event path sees the same runs as scale-free statistics; they come from the fits, so unchecked
        delta = fit.beta_hat  # read no more, so made scale-free in place
        delta /= sigma
        delta -= gamma
        covers = events(EventNoise.of(delta, fit.rss_full / sigma**2, geom), terms, geom, cfg).covers_selected[0]
        return int(np.count_nonzero(hits)), int(np.count_nonzero(covers)), int(np.count_nonzero(hits == covers)), worst

    totals = list(zip(*(counts(chunk, size) for chunk, size in enumerate(_chunk_sizes(runs)))))
    raw_covers, event_covers, agree = map(sum, totals[:3])
    worst_rss_rel = max(0.0, *totals[3])
    p_hat = raw_covers / runs
    se = math.sqrt(p_hat * (1.0 - p_hat) / runs)
    raw = CoverageEstimate(p_hat, se, int(runs), "oracle", seed, SlopePoint(gamma[pipe.k :]))
    return raw, event_covers / runs, agree / runs, worst_rss_rel


def estimate_cp_raw(
    beta, sigma: float, layout: AncovaLayout, cfg: TwoStageConfig, a, runs: int, seed: int
) -> CoverageEstimate:
    """Coverage probability estimated entirely from raw simulated fits."""
    return _simulate(beta, sigma, layout, cfg, a, runs, seed)[0]


@dataclass(frozen=True)
class AgreementReport:
    """Run-for-run comparison of the raw pipeline with the scale-free event path."""

    raw: CoverageEstimate
    event_rate: float
    agreement: float
    worst_rss_rel_error: float


def agreement_with_events(
    beta, sigma, layout, geom, cfg: TwoStageConfig, a, runs: int, seed: int
) -> AgreementReport:
    """Drive both coverage-indicator routes with common noise and compare.

    Each run's fitted coefficients and residual sum are mapped to the
    scale-free statistics (beta_hat / sigma, rss / sigma^2) and fed to the
    event-based indicator; the raw pipeline evaluates the same run in
    response units.  Disagreements can only come from rounding at event
    boundaries, so the agreement rate should be essentially one.
    """
    return AgreementReport(*_simulate(beta, sigma, layout, cfg, a, runs, seed, geom=geom))
