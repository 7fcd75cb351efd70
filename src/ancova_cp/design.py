"""Design construction and fixed geometry for one-way ANCOVA with a single covariate.

The model has k treatment groups; observation j in group i is

    Y_ij = a_i + b_i * (x_ij - xbar) + eps_ij,     eps_ij iid N(0, sigma^2),

where xbar is the grand mean of all covariate values and the coefficient
vector is beta = (a_1, ..., a_k, b_1, ..., b_k).  The procedures downstream
choose between three fitted models: all slopes zero, a common slope, and
separate slopes.  Everything they need from the design is collected once in
a GeometryBundle: the constraint selectors for "all slopes zero" and "all
slopes equal", the projection matrices of the two constrained fits, and the
variance components of a fixed linear contrast of beta.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import special

from .errors import ConditioningFailure, DomainError, SingularDesign

__all__ = [
    "AncovaLayout",
    "ContrastSpec",
    "GeometryBundle",
    "TwoStageConfig",
    "build_design",
    "build_geometry",
    "critical_values",
    "f_quantile",
    "t_quantile",
    "load_design",
    "reference_design",
]


@dataclass(frozen=True)
class AncovaLayout:
    """Group sizes and covariate values of a one-way ANCOVA design.

    Attributes
    ----------
    k : number of treatment groups.
    n : per-group sample sizes, length k.
    x : covariate values, one tuple of length n[i] per group.
    """

    k: int
    n: tuple[int, ...]
    x: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if self.k < 1:
            raise DomainError(f"k must be at least 1, got {self.k}")
        if len(self.n) != self.k:
            raise DomainError(f"n must have length k={self.k}, got {len(self.n)}")
        if any(ni < 1 for ni in self.n):
            raise DomainError(f"every group needs at least one observation, got n={self.n}")
        if len(self.x) != self.k:
            raise DomainError(f"x must have {self.k} groups, got {len(self.x)}")
        for i, (ni, xi) in enumerate(zip(self.n, self.x)):
            if len(xi) != ni:
                raise DomainError(f"group {i + 1}: expected {ni} covariate values, got {len(xi)}")
            if not all(math.isfinite(v) for v in xi):
                raise DomainError(f"group {i + 1}: covariate values must be finite")

    @property
    def n_total(self) -> int:
        return sum(self.n)

    @property
    def m(self) -> int:
        """Residual degrees of freedom of the separate-slopes fit."""
        return self.n_total - 2 * self.k

    @property
    def grand_mean(self) -> float:
        return float(sum(sum(xi) for xi in self.x)) / self.n_total

    def max_abs_centered(self) -> float:
        """Largest |x_ij - xbar| over the whole design."""
        xbar = self.grand_mean
        return max(abs(v - xbar) for xi in self.x for v in xi)


@dataclass(frozen=True)
class ContrastSpec:
    """A linear contrast a'beta of the 2k-dimensional coefficient vector."""

    a: tuple[float, ...]

    def __post_init__(self):
        if len(self.a) == 0 or len(self.a) % 2 != 0:
            raise DomainError(f"contrast must have even length 2k, got {len(self.a)}")
        if not all(math.isfinite(v) for v in self.a):
            raise DomainError("contrast entries must be finite")
        if all(v == 0.0 for v in self.a):
            raise DomainError("contrast must be nonzero")

    @classmethod
    def treatment_difference(
        cls, layout: AncovaLayout, i: int, j: int, x_star="max_abs_centered"
    ) -> "ContrastSpec":
        """Contrast for the mean response difference of groups i and j at a covariate point.

        The target is (a_i + b_i c) - (a_j + b_j c) with c the centered covariate
        coordinate of the comparison point.  ``x_star`` is either the string
        ``"max_abs_centered"``, which sets c to the largest |x_ij - xbar| in the
        design, or a raw covariate value whose centered coordinate is used.
        """
        if not (1 <= i <= layout.k and 1 <= j <= layout.k) or i == j:
            raise DomainError(f"need two distinct group labels in 1..{layout.k}, got ({i}, {j})")
        if isinstance(x_star, str):
            if x_star != "max_abs_centered":
                raise DomainError(f"unknown symbolic comparison point {x_star!r}")
            c = layout.max_abs_centered()
        else:
            c = float(x_star) - layout.grand_mean
        a = [0.0] * (2 * layout.k)
        a[i - 1] = 1.0
        a[j - 1] = -1.0
        a[layout.k + i - 1] = c
        a[layout.k + j - 1] = -c
        return cls(a=tuple(a))


@dataclass(frozen=True)
class TwoStageConfig:
    """Nominal levels and the fixed cutoffs of the two-stage selection procedure.

    l_tau is the cutoff of the first-stage F test of "all slopes zero" and
    l_xi the cutoff of the second-stage F test of "all slopes equal"; a test
    accepts on F <= cutoff.  t_m, t_mk, t_mk1 are the two-sided t critical
    points used by the intervals of the separate-slopes, zero-slopes and
    common-slope fits (residual df m, m + k, m + k - 1 respectively).
    """

    alpha: float
    sig_tau: float
    sig_xi: float
    l_tau: float
    l_xi: float
    t_m: float
    t_mk: float
    t_mk1: float


def _design_rows(layout: AncovaLayout) -> np.ndarray:
    k = layout.k
    xbar = layout.grand_mean
    rows = np.zeros((layout.n_total, 2 * k))
    r = 0
    for i in range(k):
        for v in layout.x[i]:
            rows[r, i] = 1.0
            rows[r, k + i] = v - xbar
            r += 1
    return rows


def build_design(layout: AncovaLayout) -> np.ndarray:
    """Design matrix of the separate-slopes model, covariate centered at the grand mean.

    Raises SingularDesign when X'X admits no Cholesky factor, which happens
    exactly when some group has all covariate values equal (the centered
    slope column is then zero or collinear with the group indicator).
    """
    x_design = _design_rows(layout)
    try:
        np.linalg.cholesky(x_design.T @ x_design)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("X'X is not positive definite for this layout") from exc
    return x_design


@dataclass(frozen=True)
class GeometryBundle:
    """Design geometry and contrast variance components, computed once per design.

    Beyond the raw blocks of (X'X)^-1 this caches the solved projection
    vectors and Cholesky factors the estimators need on every draw, so the
    per-draw work is a handful of dot products.
    """

    # design and constraint selectors
    x_design: np.ndarray
    xtx_inv: np.ndarray
    c_tau: np.ndarray
    c_xi: np.ndarray
    u: np.ndarray
    m: int
    k: int
    # covariance blocks of the contrast and the two constraint estimates
    v22: np.ndarray
    w22: np.ndarray
    v21: np.ndarray
    w21: np.ndarray
    v11: float
    v_star: float
    w_star: float
    s21: np.ndarray
    g_tau: np.ndarray
    g_xi: np.ndarray
    # cached derived quantities
    a: np.ndarray
    v22_inv: np.ndarray
    w22_inv: np.ndarray
    vproj: np.ndarray  # V22^-1 v21
    wproj: np.ndarray  # W22^-1 w21
    sproj: np.ndarray  # V22^-1 s21
    w_cond: float  # w_star - s21' V22^-1 s21
    ga_tau: np.ndarray  # g_tau' a
    ga_xi: np.ndarray  # g_xi' a
    noise_chol: np.ndarray  # lower Cholesky factor of (X'X)^-1
    v22_chol: np.ndarray  # lower Cholesky factor of v22


def _spd_inverse(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Return (chol_lower, inverse) of a symmetric positive definite matrix."""
    if mat.shape[0] == 0:
        return np.zeros((0, 0)), np.zeros((0, 0))
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise ConditioningFailure(f"{what} is not positive definite") from exc
    ident = np.eye(mat.shape[0])
    half = np.linalg.solve(chol, ident)
    return chol, half.T @ half


def build_geometry(layout: AncovaLayout, contrast: ContrastSpec) -> GeometryBundle:
    """Assemble the GeometryBundle for a layout and contrast.

    Raises SingularDesign if X'X is not positive definite and
    ConditioningFailure if any derived variance component fails to be
    strictly positive and finite.
    """
    k = layout.k
    a = np.asarray(contrast.a, dtype=float)
    if a.shape != (2 * k,):
        raise DomainError(f"contrast has length {a.shape[0]}, design needs {2 * k}")

    x_design = _design_rows(layout)
    xtx = x_design.T @ x_design
    try:
        xtx_chol = np.linalg.cholesky(xtx)
    except np.linalg.LinAlgError as exc:
        raise SingularDesign("X'X is not positive definite for this layout") from exc
    half = np.linalg.solve(xtx_chol, np.eye(2 * k))
    xtx_inv = half.T @ half

    # selector of the slope block: c_tau' beta = (b_1, ..., b_k)
    c_tau = np.vstack([np.zeros((k, k)), np.eye(k)])
    # selector of slope differences: c_xi' beta = (b_1 - b_2, ..., b_1 - b_k)
    c_xi = np.zeros((2 * k, k - 1))
    c_xi[k, :] = 1.0
    for j in range(k - 1):
        c_xi[k + 1 + j, j] = -1.0
    u = np.hstack([np.ones((k - 1, 1)), -np.eye(k - 1)])

    v22 = xtx_inv[k:, k:]
    w22 = c_xi.T @ xtx_inv @ c_xi
    v21 = xtx_inv[k:, :] @ a
    w21 = c_xi.T @ (xtx_inv @ a)
    v11 = float(a @ xtx_inv @ a)

    v22_chol, v22_inv = _spd_inverse(v22, "V22 (slope covariance block)")
    _, w22_inv = _spd_inverse(w22, "W22 (slope-difference covariance block)")

    vproj = v22_inv @ v21
    wproj = w22_inv @ w21
    v_star = v11 - float(v21 @ vproj)
    w_star = v11 - float(w21 @ wproj)
    s21 = v21 - xtx_inv[k:, :] @ (c_xi @ wproj)
    sproj = v22_inv @ s21
    w_cond = w_star - float(s21 @ sproj)

    ident = np.eye(2 * k)
    g_tau = ident - xtx_inv[:, k:] @ v22_inv @ c_tau.T
    g_xi = ident - xtx_inv @ c_xi @ w22_inv @ c_xi.T

    for name, value in (("v11", v11), ("v_star", v_star), ("w_star", w_star), ("w_cond", w_cond)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConditioningFailure(f"{name} = {value} is not strictly positive and finite")

    noise_chol = np.linalg.cholesky(xtx_inv)

    return GeometryBundle(
        x_design=x_design,
        xtx_inv=xtx_inv,
        c_tau=c_tau,
        c_xi=c_xi,
        u=u,
        m=layout.m,
        k=k,
        v22=v22,
        w22=w22,
        v21=v21,
        w21=w21,
        v11=v11,
        v_star=v_star,
        w_star=w_star,
        s21=s21,
        g_tau=g_tau,
        g_xi=g_xi,
        a=a,
        v22_inv=v22_inv,
        w22_inv=w22_inv,
        vproj=vproj,
        wproj=wproj,
        sproj=sproj,
        w_cond=w_cond,
        ga_tau=g_tau.T @ a,
        ga_xi=g_xi.T @ a,
        noise_chol=noise_chol,
        v22_chol=v22_chol,
    )


# ---------------------------------------------------------------------------
# Quantiles: scipy's inverse F and t distribution functions, which agree with
# an arbitrary-precision inversion to a few ulp.
# ---------------------------------------------------------------------------


def f_quantile(p: float, d1: int, d2: int) -> float:
    """p-quantile of the F distribution with (d1, d2) degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    if d1 < 1 or d2 < 1:
        raise DomainError(f"degrees of freedom must be positive, got ({d1}, {d2})")
    return float(special.fdtri(d1, d2, p))


def t_quantile(p: float, df: int) -> float:
    """p-quantile of Student's t distribution with df degrees of freedom."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {p}")
    if df < 1:
        raise DomainError(f"degrees of freedom must be positive, got {df}")
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    return float(special.stdtrit(df, p))


def critical_values(
    layout: AncovaLayout, alpha: float, sig_tau: float, sig_xi: float
) -> TwoStageConfig:
    """Cutoffs and t critical points for a design and a triple of levels.

    alpha is the nominal non-coverage level of the interval, sig_tau and
    sig_xi the levels of the two selection F tests.  All three must lie
    strictly between 0 and 1; degenerate cutoffs (0 or infinity) for
    forced selection are obtained by dataclasses.replace on the result.
    """
    for name, level in (("alpha", alpha), ("sig_tau", sig_tau), ("sig_xi", sig_xi)):
        if not 0.0 < level < 1.0:
            raise DomainError(f"{name} must be in (0, 1), got {level}")
    k, m = layout.k, layout.m
    if m < 1:
        raise DomainError(f"residual degrees of freedom m = {m} must be at least 1")
    if k < 2:
        raise DomainError("the two-stage procedure needs at least two groups")
    return TwoStageConfig(
        alpha=alpha,
        sig_tau=sig_tau,
        sig_xi=sig_xi,
        l_tau=f_quantile(1.0 - sig_tau, k, m),
        l_xi=f_quantile(1.0 - sig_xi, k - 1, m),
        t_m=t_quantile(1.0 - 0.5 * alpha, m),
        t_mk=t_quantile(1.0 - 0.5 * alpha, m + k),
        t_mk1=t_quantile(1.0 - 0.5 * alpha, m + k - 1),
    )


# ---------------------------------------------------------------------------
# Design file ingestion.
# ---------------------------------------------------------------------------


def _parse_design(doc: dict, origin: str) -> tuple[AncovaLayout, ContrastSpec]:
    try:
        k = int(doc["k"])
        n = tuple(int(v) for v in doc["n"])
        x = tuple(tuple(float(v) for v in group) for group in doc["x"])
        raw_contrast = doc["contrast"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"{origin}: expected keys k, n, x, contrast ({exc})") from exc
    layout = AncovaLayout(k=k, n=n, x=x)
    if isinstance(raw_contrast, dict):
        try:
            contrast = ContrastSpec.treatment_difference(
                layout,
                int(raw_contrast["i"]),
                int(raw_contrast["j"]),
                raw_contrast.get("x_star", "max_abs_centered"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DomainError(f"{origin}: bad symbolic contrast ({exc})") from exc
    else:
        contrast = ContrastSpec(a=tuple(float(v) for v in raw_contrast))
    return layout, contrast


def load_design(path) -> tuple[AncovaLayout, ContrastSpec]:
    """Read a layout and contrast from a JSON design file.

    The file has keys ``k``, ``n`` (list of group sizes), ``x`` (list of
    per-group covariate lists) and ``contrast``, the latter either an
    explicit list of 2k coefficients or the symbolic form
    ``{"i": 1, "j": 2, "x_star": "max_abs_centered"}``.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: top level must be an object")
    return _parse_design(doc, str(path))


def reference_design() -> tuple[AncovaLayout, ContrastSpec]:
    """The bundled three-group, eight-per-group demonstration design."""
    payload = resources.files("ancova_cp").joinpath("data/reference_design.json").read_text()
    return _parse_design(json.loads(payload), "reference_design")
