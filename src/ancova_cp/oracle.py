"""Raw-data reference pipeline: simulate responses, fit, test, and check coverage.

This is the deliberately plain implementation the fast estimators are
validated against.  It works in response units: draws eps ~ N(0, sigma^2),
forms Y = X beta + eps, fits all three candidate models, computes the F
statistics from residual sums of squares, and checks interval coverage with
sigma-unit half-widths.  All its matrix quantities are computed here with
plain explicit inverses rather than shared with the geometry cache, so
agreement with the scale-free event path is a genuine cross-check.

Constrained fits use the projection identity: the least squares fit under
C'beta = 0 equals G beta_hat with G = I - (X'X)^-1 C (C'(X'X)^-1 C)^-1 C'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .design import AncovaLayout, ContrastSpec, TwoStageConfig, build_design
from .errors import DomainError
from .montecarlo import CHUNK_SIZE, CoverageEstimate, SlopePoint, _chunk_sizes, _stream
from .selection import batch_events, coverage_indicator  # noqa: F401  perfbench/spans.py traces the name

__all__ = ["RawFit", "AgreementReport", "simulate_and_fit", "estimate_cp_raw", "agreement_with_events"]


@dataclass(frozen=True)
class RawFit:
    """One simulated data set fitted under all three candidate models."""

    beta_hat: np.ndarray
    rss_full: float
    beta_tau: np.ndarray
    rss_tau: float
    beta_xi: np.ndarray
    rss_xi: float
    sigma2_hat: float


class _RawPipeline:
    """Design pieces for repeated raw fits, built once from the layout alone."""

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
        self.layout = layout
        self.k = k
        self.m = layout.m
        self.x_design = x_design
        self.xtx_inv = xtx_inv
        self.proj = xtx_inv @ x_design.T
        self.c_tau = c_tau
        self.c_xi = c_xi
        self.v22_inv = np.linalg.inv(xtx_inv[k:, k:])
        self.w22_inv = np.linalg.inv(c_xi.T @ xtx_inv @ c_xi)
        self.g_tau = ident - xtx_inv @ c_tau @ self.v22_inv @ c_tau.T
        self.g_xi = ident - xtx_inv @ c_xi @ self.w22_inv @ c_xi.T

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

    def fit(self, y: np.ndarray) -> RawFit:
        beta_hat = self.proj @ y
        rss_full = float(np.sum((y - self.x_design @ beta_hat) ** 2))
        beta_tau = self.g_tau @ beta_hat
        rss_tau = float(np.sum((y - self.x_design @ beta_tau) ** 2))
        beta_xi = self.g_xi @ beta_hat
        rss_xi = float(np.sum((y - self.x_design @ beta_xi) ** 2))
        return RawFit(
            beta_hat=beta_hat,
            rss_full=rss_full,
            beta_tau=beta_tau,
            rss_tau=rss_tau,
            beta_xi=beta_xi,
            rss_xi=rss_xi,
            sigma2_hat=rss_full / self.m,
        )


def simulate_and_fit(
    beta, sigma: float, layout: AncovaLayout, rng: np.random.Generator
) -> RawFit:
    """Draw one response vector Y = X beta + sigma * z and fit all three models."""
    beta = _check_beta(beta, layout)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    pipe = _RawPipeline(layout)
    eps = sigma * rng.standard_normal(layout.n_total)
    return pipe.fit(pipe.x_design @ beta + eps)


def _check_beta(beta, layout: AncovaLayout) -> np.ndarray:
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (2 * layout.k,) or not np.all(np.isfinite(beta)):
        raise DomainError(f"beta must be {2 * layout.k} finite values")
    return beta


def _raw_run(pipe: _RawPipeline, cfg: TwoStageConfig, a, scalars, theta, y):
    """Raw coverage indicator for one response vector, plus the fit."""
    v11, v_star, w_star = scalars
    k, m = pipe.k, pipe.m
    fit = pipe.fit(y)
    f_tau = ((fit.rss_tau - fit.rss_full) / k) / (fit.rss_full / m)
    f_xi = ((fit.rss_xi - fit.rss_full) / (k - 1)) / (fit.rss_full / m)
    if f_tau <= cfg.l_tau:
        center = float(a @ fit.beta_tau)
        half = cfg.t_mk * math.sqrt(fit.rss_tau / (m + k)) * math.sqrt(v_star)
    elif f_xi <= cfg.l_xi:
        center = float(a @ fit.beta_xi)
        half = cfg.t_mk1 * math.sqrt(fit.rss_xi / (m + k - 1)) * math.sqrt(w_star)
    else:
        center = float(a @ fit.beta_hat)
        half = cfg.t_m * math.sqrt(fit.rss_full / m) * math.sqrt(v11)
    return abs(center - theta) <= half, fit


def _simulate(beta, sigma, layout, cfg, a, runs, seed, geom=None):
    """Common loop; yields the raw estimate, per-run raw indicators and, when
    geom is given, the event-path indicators computed from the same noise plus
    the worst relative error of the zero-slopes residual-sum identity."""
    beta = _check_beta(beta, layout)
    a = np.asarray(a, dtype=float)
    if not sigma > 0.0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    sizes = _chunk_sizes(runs)
    pipe = _RawPipeline(layout)
    scalars = pipe.contrast_scalars(a)
    theta = float(a @ beta)
    gamma = beta / sigma

    raw_hits = np.zeros(runs, dtype=bool)
    event_hits = np.zeros(runs, dtype=bool) if geom is not None else None
    gamma_hat = np.empty((CHUNK_SIZE, 2 * pipe.k))
    d = np.empty(CHUNK_SIZE)
    worst_rss_rel = 0.0
    r = 0
    for chunk, size in enumerate(sizes):
        rng = _stream(seed, "oracle", chunk)
        for i in range(size):
            eps = sigma * rng.standard_normal(layout.n_total)
            y = pipe.x_design @ beta + eps
            raw_hits[r], fit = _raw_run(pipe, cfg, a, scalars, theta, y)
            slopes_hat = fit.beta_hat[pipe.k :]
            rss_tau_pred = fit.rss_full + float(slopes_hat @ pipe.v22_inv @ slopes_hat)
            worst_rss_rel = max(worst_rss_rel, abs(fit.rss_tau - rss_tau_pred) / fit.rss_tau)
            gamma_hat[i] = fit.beta_hat / sigma
            d[i] = fit.rss_full / sigma**2
            r += 1
        if geom is not None:
            # the event path sees each run's scale-free statistics, a chunk at a time
            ev = batch_events(gamma_hat[:size] - gamma, d[:size], gamma[pipe.k :], geom, cfg)
            event_hits[r - size : r] = ev.covers_selected
    p_hat = float(raw_hits.mean())
    se = math.sqrt(p_hat * (1.0 - p_hat) / runs)
    raw = CoverageEstimate(p_hat, se, int(runs), "oracle", seed, SlopePoint.of(gamma[pipe.k :]))
    return raw, raw_hits, event_hits, worst_rss_rel


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
    raw_est, raw_hits, event_hits, worst_rss = _simulate(beta, sigma, layout, cfg, a, runs, seed, geom=geom)
    return AgreementReport(
        raw=raw_est,
        event_rate=float(event_hits.mean()),
        agreement=float((raw_hits == event_hits).mean()),
        worst_rss_rel_error=worst_rss,
    )
