"""Design construction and fixed geometry for one-way ANCOVA with a single covariate.

The model has k treatment groups; observation j in group i is

    Y_ij = a_i + b_i * (x_ij - xbar) + eps_ij,     eps_ij iid N(0, sigma^2),

where xbar is the grand mean of all covariate values and the coefficient
vector is beta = (a_1, ..., a_k, b_1, ..., b_k).  The procedures downstream
choose between three fitted models: all slopes zero, a common slope, and
separate slopes.  Everything they need from the design is collected once in
a GeometryBundle: the variance components of a fixed linear contrast of beta,
and that contrast pushed through the projections of the two constrained fits
("all slopes zero" and "all slopes equal").
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np
from scipy import special

from .errors import VECTOR, ConditioningFailure, DomainError, SingularDesign, _shown
from .errors import check_count, check_real, check_reals

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


def _per_group(name: str, values, k: int) -> tuple:
    """``values`` as a tuple of one entry per group, if it is a sequence of k entries, else DomainError."""
    if not np.iterable(values):
        raise DomainError(f"{name} must be a sequence of {k} groups, got {_shown(values)}")
    if len(values := tuple(values)) != k:
        raise DomainError(f"{name} must have {k} groups, got {len(values)}")
    return values


@dataclass(frozen=True)
class AncovaLayout:
    """Group sizes and covariate values of a one-way ANCOVA design.

    Attributes
    ----------
    k : number of treatment groups.
    n : per-group sample sizes, length k.
    x : covariate values, one tuple of length n[i] per group; -0.0 is stored as 0.0, so equal layouts give equal bits.
    """

    k: int
    n: tuple[int, ...]
    x: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        k = check_count("k", self.k, 1)
        n = tuple(check_count("group size n", ni, 1) for ni in _per_group("n", self.n, k))
        groups = enumerate(zip(n, _per_group("x", self.x, k)), 1)
        x = (check_reals(f"group {i} covariates", xi, ni, VECTOR) + 0.0 for i, (ni, xi) in groups)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "x", tuple(tuple(xi.tolist()) for xi in x))

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
        a = check_reals("contrast", self.a, None, VECTOR)
        if len(a) % 2:
            raise DomainError(f"contrast must have even length 2k, got {len(a)}")
        if not a.any():
            raise DomainError("contrast must be nonzero")
        object.__setattr__(self, "a", tuple(a.tolist()))

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
        i, j = check_count("i", i, 1), check_count("j", j, 1)
        if not (i <= layout.k and j <= layout.k) or i == j:
            raise DomainError(f"need two distinct group labels in 1..{layout.k}, got ({i}, {j})")
        if isinstance(x_star, str):
            if x_star != "max_abs_centered":
                raise DomainError(f"unknown symbolic comparison point {x_star!r}")
            c = layout.max_abs_centered()
        else:
            c = check_real("x_star", x_star) - layout.grand_mean
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
    Cutoffs are numbers in [0, inf] (0 forces a test to reject, inf to
    accept) and t points finite numbers >= 0; both are stored as floats, -0.0
    as 0.0, so configs that select alike compare and hash alike.  k >= 2 and
    m >= 1, integers, are the groups and residual df of the design the config
    was made for, the only designs the procedure is defined on (critical_values
    sets them, dataclasses.replace keeps them); check_design, the one gate,
    refuses a config made for another design wherever a geometry meets a config.
    """

    alpha: float
    sig_tau: float
    sig_xi: float
    l_tau: float
    l_xi: float
    t_m: float
    t_mk: float
    t_mk1: float
    k: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_count("config k", self.k, 2))
        object.__setattr__(self, "m", check_count("config m", self.m, 1))
        for name in ("l_tau", "l_xi", "t_m", "t_mk", "t_mk1"):
            value = getattr(self, name)
            cutoff = name.startswith("l_")
            number = math.inf if cutoff and isinstance(value, float) and value == math.inf else check_real(name, value)
            if number < 0.0:
                raise DomainError(f"{name} must be {'in [0, inf]' if cutoff else 'at least 0'}, got {number}")
            object.__setattr__(self, name, number + 0.0)

    def check_design(self, k: int, m: int) -> None:
        """DomainError unless the config fits a design of k groups and m residual degrees of freedom."""
        if (self.k, self.m) != (k, m):
            fix = ("make it with critical_values for this design" if k >= 2 and m >= 1
                   else "the two-stage procedure needs at least two groups and m >= 1")
            raise DomainError(f"the config was made for a design with k = {self.k} and m = {self.m}, not for this "
                              f"one with k = {k} and m = {m}: {fix}")


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
    _spd_inverse(x_design.T @ x_design, "X'X", SingularDesign)
    return x_design


@dataclass(frozen=True, eq=False)
class GeometryBundle:
    """What the estimators read of a design and contrast, computed once per design; compared and hashed by identity.

    With V = (X'X)^-1, V22 its slope block and W22 the covariance of the
    slope differences U q, v21 and w21 are the covariances of the contrast
    estimate with the slopes and with their differences, and s21 that of the
    common-slope contrast estimate with the slopes.  Only the solved
    projections and Cholesky factors of these are kept, so the per-draw work
    is a handful of dot products; every matrix is in Fortran order (times_t).
    """

    u: np.ndarray  # (k-1, k) slope-difference selector: U q = (q_1 - q_2, ..., q_1 - q_k)
    m: int
    k: int
    a: np.ndarray  # the contrast
    v11: float  # a'Va
    v_star: float  # v11 - v21' V22^-1 v21
    w_star: float  # v11 - w21' W22^-1 w21
    w_cond: float  # w_star - s21' V22^-1 s21
    v22_inv: np.ndarray
    w22_inv: np.ndarray
    vproj: np.ndarray  # V22^-1 v21
    wproj: np.ndarray  # W22^-1 w21
    sproj: np.ndarray  # V22^-1 s21
    ga_tau: np.ndarray  # G_tau' a = a - [0; vproj], G_tau the zero-slopes projection of the full fit
    ga_xi: np.ndarray  # G_xi' a = a - C_xi wproj, G_xi the common-slope projection, C_xi' beta = U b
    noise_chol: np.ndarray  # lower Cholesky factor of V
    v22_chol: np.ndarray  # lower Cholesky factor of V22


def times_t(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat.T for a Fortran-ordered mat: gemm takes its C-contiguous mat.T 3x as fast, same bits; one row goes
    through gemv, whose rounding follows the layout: mat in C order.  Symmetric mat @ column rounds as row @ mat."""
    return x @ (mat if np.ndim(x) > 1 and len(x) > 1 else np.ascontiguousarray(mat)).T


def _spd_inverse(mat: np.ndarray, what: str, error=ConditioningFailure) -> tuple[np.ndarray, np.ndarray]:
    """(chol_lower, inverse) of a symmetric positive definite matrix, empty ones if it is empty; else ``error``."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} is not positive definite") from exc
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
    a = check_reals("contrast", contrast.a, 2 * k, VECTOR)

    x_design = _design_rows(layout)
    _, xtx_inv = _spd_inverse(x_design.T @ x_design, "X'X", SingularDesign)

    u = np.hstack([np.ones((k - 1, 1)), -np.eye(k - 1)])
    # selector of slope differences: c_xi' beta = U (b_1, ..., b_k) = (b_1 - b_2, ..., b_1 - b_k)
    c_xi = np.vstack([np.zeros((k, k - 1)), u.T])

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

    # v_star is the variance of the intercept part a_1..a_k under the zero-slopes fit: exactly 0
    # when that part is zero, however the subtraction above rounds
    if not np.any(a[:k]):
        raise ConditioningFailure("v_star = 0 is not strictly positive: the contrast has no intercept part")
    for name, value in (("v11", v11), ("v_star", v_star), ("w_star", w_star), ("w_cond", w_cond)):
        if not (math.isfinite(value) and value > 0.0):
            raise ConditioningFailure(f"{name} = {value} is not strictly positive and finite")

    noise_chol = np.linalg.cholesky(xtx_inv)

    return GeometryBundle(
        u=np.asfortranarray(u),
        m=layout.m,
        k=k,
        a=a,
        v11=v11,
        v_star=v_star,
        w_star=w_star,
        w_cond=w_cond,
        v22_inv=np.asfortranarray(v22_inv),
        w22_inv=np.asfortranarray(w22_inv),
        vproj=vproj,
        wproj=wproj,
        sproj=sproj,
        ga_tau=a - np.concatenate([np.zeros(k), vproj]),
        ga_xi=a - c_xi @ wproj,
        noise_chol=np.asfortranarray(noise_chol),
        v22_chol=np.asfortranarray(v22_chol),
    )


# ---------------------------------------------------------------------------
# Quantiles: scipy's inverse F and t distribution functions, which agree with
# an arbitrary-precision inversion to a few ulp.
# ---------------------------------------------------------------------------


def _level(name: str, p) -> float:
    """``p`` as a float strictly between 0 and 1, else DomainError."""
    p = check_real(name, p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"{name} must be in (0, 1), got {p}")
    return p


def f_quantile(p: float, d1: int, d2: int) -> float:
    """p-quantile of the F distribution with (d1, d2) degrees of freedom."""
    p, d1, d2 = _level("quantile level", p), check_count("d1", d1, 1), check_count("d2", d2, 1)
    return float(special.fdtri(d1, d2, p))


def t_quantile(p: float, df: int) -> float:
    """p-quantile of Student's t distribution with df degrees of freedom."""
    p, df = _level("quantile level", p), check_count("df", df, 1)
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
    alpha, sig_tau, sig_xi = _level("alpha", alpha), _level("sig_tau", sig_tau), _level("sig_xi", sig_xi)
    p_t, p_tau, p_xi = 1.0 - 0.5 * alpha, 1.0 - sig_tau, 1.0 - sig_xi
    for name, level, p in (("alpha", alpha, p_t), ("sig_tau", sig_tau, p_tau), ("sig_xi", sig_xi, p_xi)):
        if p == 1.0:  # its quantile would be inf
            raise DomainError(f"{name} is too small: the quantile level it sets rounds to 1, got {level}")
    k, m = layout.k, layout.m
    if m < 1:
        raise DomainError(f"residual degrees of freedom m = {m} must be at least 1")
    if k < 2:
        raise DomainError("the two-stage procedure needs at least two groups")
    return TwoStageConfig(
        alpha=alpha,
        sig_tau=sig_tau,
        sig_xi=sig_xi,
        l_tau=f_quantile(p_tau, k, m),
        l_xi=f_quantile(p_xi, k - 1, m),
        t_m=t_quantile(p_t, m),
        t_mk=t_quantile(p_t, m + k),
        t_mk1=t_quantile(p_t, m + k - 1),
        k=k,
        m=m,
    )


# ---------------------------------------------------------------------------
# Design file ingestion.
# ---------------------------------------------------------------------------


def _read_json_object(path) -> dict:
    """The top-level JSON object of a file; DomainError if it is not valid JSON or not an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise DomainError(f"{path}: top level must be an object")
    return doc


def _parse_design(doc: dict, origin: str) -> tuple[AncovaLayout, ContrastSpec]:
    try:
        layout = AncovaLayout(k=doc["k"], n=tuple(doc["n"]), x=tuple(tuple(group) for group in doc["x"]))
        raw = doc["contrast"]
        if isinstance(raw, dict):
            x_star = raw.get("x_star", "max_abs_centered")
            contrast = ContrastSpec.treatment_difference(layout, raw["i"], raw["j"], x_star)
        else:
            contrast = ContrastSpec(a=tuple(raw))
    except DomainError as exc:
        raise DomainError(f"{origin}: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise DomainError(f"{origin}: bad design, need keys k, n, x, contrast ({exc})") from exc
    return layout, contrast


def load_design(path) -> tuple[AncovaLayout, ContrastSpec]:
    """Read a layout and contrast from a JSON design file.

    The file has keys ``k``, ``n`` (list of group sizes), ``x`` (list of
    per-group covariate lists) and ``contrast``, the latter either an
    explicit list of 2k coefficients or the symbolic form
    ``{"i": 1, "j": 2, "x_star": "max_abs_centered"}``.  ``k``, ``n`` and
    ``i``/``j`` must be JSON integers (3.0 or true is refused, not truncated)
    and covariate and contrast entries JSON numbers ("78" or true is refused).
    """
    return _parse_design(_read_json_object(path), str(path))


def reference_design() -> tuple[AncovaLayout, ContrastSpec]:
    """The bundled three-group, eight-per-group demonstration design."""
    payload = resources.files("ancova_cp").joinpath("data/reference_design.json").read_text()
    return _parse_design(json.loads(payload), "reference_design")
