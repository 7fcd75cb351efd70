"""Independent reference implementations used only by the test suite.

Every routine here deliberately avoids the code paths of the package under
test: quantiles come from mpmath bisection instead of scipy's inverse beta,
conditional coverage from resampling instead of the closed form, the
closed form itself from one nested np.where pass over every cell instead of
one formula per selection region, restricted fits from re-solved least
squares instead of projection matrices, and gate probabilities from scipy's
noncentral F distribution and from simulated F statistics, the weakest boundary point of a search region by
argmin over its faces instead of the closed form.  ``assembled`` lays out the groups of the
conditional kernel as one (points, draws) array, ``certified`` names the
points the conditional kernel gives the shared region-C row, and
``slope_draws`` makes a chunk's (z, d) as the conditioned estimator does.
The ``*_reference`` routines form the hot path's matrix products the plain
way, draws in rows on the left of C-ordered matrices and columns copied to
rows, which the package's Fortran-ordered, row-major route must match bit
for bit; ``raw_simulate_reference`` runs the raw oracle's chunk loop with a
fresh array for every step, which the in-place chunks must match bit for bit.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special, stats

mpmath.mp.dps = 40


def _mp_bisect(cdf, p, lo, hi, iters=200):
    p = mpmath.mpf(p)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    while cdf(hi) < p:
        hi *= 2
    for _ in range(iters):
        mid = (lo + hi) / 2
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def mp_f_quantile(p: float, d1: int, d2: int) -> float:
    """F quantile by bisection on the regularized incomplete beta CDF."""

    def cdf(x):
        if x <= 0:
            return mpmath.mpf(0)
        z = d1 * x / (d1 * x + d2)
        return mpmath.betainc(d1 / mpmath.mpf(2), d2 / mpmath.mpf(2), 0, z, regularized=True)

    return _mp_bisect(cdf, p, 0, 10)


def mp_t_quantile(p: float, df: int) -> float:
    """Student t quantile by bisection; p may be on either side of 1/2."""
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -mp_t_quantile(1.0 - p, df)

    def cdf(x):
        z = df / (df + x * x)
        tail = mpmath.betainc(df / mpmath.mpf(2), mpmath.mpf(1) / 2, 0, z, regularized=True) / 2
        return (tail if x < 0 else 1 - tail)

    return _mp_bisect(cdf, p, 0, 10)


def conditional_draws(direct: dict, slopes: np.ndarray, q: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Sample gamma_hat from its exact conditional law given the slope block q.

    ``direct`` is the output of direct_geometry.  An unconditional draw
    gamma_hat0 = gamma + L z is corrected by
    (X'X)^-1 C_tau V22^-1 (q - slope block of gamma_hat0); the corrected
    vector is Gaussian with the conditional mean and covariance, and its
    slope block equals q identically.
    """
    k = len(slopes)
    gamma = np.concatenate([np.zeros(k), slopes])
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, 2 * k))
    g0 = gamma + z @ np.linalg.cholesky(direct["xtx_inv"]).T
    corr_map = direct["xtx_inv"] @ direct["c_tau"] @ direct["v22_inv"]
    return g0 + (q - g0[:, k:]) @ corr_map.T


def conditional_coverage_mc(layout, cfg, a, slopes, q, d, which: str, n: int, seed: int):
    """(estimate, binomial se) of conditional interval coverage given (q, d).

    ``which`` picks the interval: "tau", "xi" or "full".  Membership is
    evaluated in gamma units from the resampled gamma_hat directly, without
    the package's centered-event shortcut, and every matrix comes from
    direct_geometry(layout, a) rather than from the package's geometry.
    """
    slopes = np.asarray(slopes, dtype=float)
    q = np.asarray(q, dtype=float)
    a = np.asarray(a, dtype=float)
    direct = direct_geometry(layout, a)
    k, m = layout.k, layout.m
    gamma = np.concatenate([np.zeros(k), slopes])
    theta = float(a @ gamma)
    gh = conditional_draws(direct, slopes, q, n, seed)

    quad_v = float(q @ direct["v22_inv"] @ q)
    uq = direct["u"] @ q
    quad_w = float(uq @ direct["w22_inv"] @ uq)
    if which == "tau":
        center = gh @ direct["ga_tau"]
        half = cfg.t_mk * np.sqrt((d + quad_v) / (m + k)) * np.sqrt(direct["v_star"])
    elif which == "xi":
        center = gh @ direct["ga_xi"]
        half = cfg.t_mk1 * np.sqrt((d + quad_w) / (m + k - 1)) * np.sqrt(direct["w_star"])
    elif which == "full":
        center = gh @ a
        half = cfg.t_m * np.sqrt(d / m) * np.sqrt(direct["v11"])
    else:
        raise ValueError(which)
    hits = np.abs(center - theta) <= half
    p = float(hits.mean())
    return p, float(np.sqrt(max(p * (1 - p), 1e-12) / n))


def gate_prob_ncf(geom, cfg, slopes, which: str) -> float:
    """Exact Pr(F <= cutoff) for a selection test, via the noncentral F CDF."""
    slopes = np.asarray(slopes, dtype=float)
    if which == "tau":
        lam = float(slopes @ geom.v22_inv @ slopes)
        return float(stats.ncf.cdf(cfg.l_tau, geom.k, geom.m, lam))
    us = geom.u @ slopes
    lam = float(us @ geom.w22_inv @ us)
    return float(stats.ncf.cdf(cfg.l_xi, geom.k - 1, geom.m, lam))


def weakest_reference(faces: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """The point of least x' cov^-1 x on the face planes of a box, ``faces`` its (ndim, 2) bounds: the face of
    least c^2 / cov_ii by argmin over every face (the first one on a tie), then c cov_i / cov_ii, zeros +0.0."""
    with np.errstate(over="ignore"):  # a face whose form overflows to inf is not the least one
        i, j = np.unravel_index(np.argmin(np.square(faces) / np.diag(cov)[:, None]), faces.shape)
    return faces[i, j] * (cov[i] / cov[i, i]) + 0.0


def gate_prob_mc(layout, a, cfg, slopes, which: str, runs: int, seed: int) -> tuple[float, float]:
    """(estimate, binomial se) of Pr(F <= cutoff) for a selection test, by simulation.

    q ~ N(slopes, V22) and d ~ chi2_m are drawn from numpy's default generator, and F is formed from the
    quadratic forms of direct_geometry(layout, a) as (quad / df) / (d / m).
    """
    direct = direct_geometry(layout, np.asarray(a, dtype=float))
    k, m = layout.k, layout.m
    rng = np.random.default_rng(seed)
    q = np.asarray(slopes, dtype=float) + rng.standard_normal((runs, k)) @ np.linalg.cholesky(direct["v22"]).T
    d = rng.chisquare(m, runs)
    if which == "tau":
        form, mat, df, cutoff = q, direct["v22_inv"], k, cfg.l_tau
    else:
        form, mat, df, cutoff = q @ direct["u"].T, direct["w22_inv"], k - 1, cfg.l_xi
    accept = (np.einsum("ni,ij,nj->n", form, mat, form) / df) / (d / m) <= cutoff
    p = float(accept.mean())
    return p, math.sqrt(p * (1.0 - p) / runs)


def restricted_fit_zero_slopes(layout, y: np.ndarray) -> np.ndarray:
    """Least squares under all slopes zero, re-solved on the reduced matrix."""
    k = layout.k
    rows = np.zeros((layout.n_total, k))
    r = 0
    for i in range(k):
        for _ in range(layout.n[i]):
            rows[r, i] = 1.0
            r += 1
    coef, *_ = np.linalg.lstsq(rows, y, rcond=None)
    return np.concatenate([coef, np.zeros(k)])


def restricted_fit_common_slope(layout, y: np.ndarray) -> np.ndarray:
    """Least squares under equal slopes, re-solved on the reduced matrix."""
    k = layout.k
    xbar = layout.grand_mean
    rows = np.zeros((layout.n_total, k + 1))
    r = 0
    for i in range(k):
        for v in layout.x[i]:
            rows[r, i] = 1.0
            rows[r, k] = v - xbar
            r += 1
    coef, *_ = np.linalg.lstsq(rows, y, rcond=None)
    return np.concatenate([coef[:k], np.full(k, coef[k])])


def rss_f_statistics(layout, y: np.ndarray) -> tuple[float, float]:
    """Both selection F statistics from residual sums of three lstsq fits."""
    k, m = layout.k, layout.m
    xbar = layout.grand_mean
    full = np.zeros((layout.n_total, 2 * k))
    r = 0
    for i in range(k):
        for v in layout.x[i]:
            full[r, i] = 1.0
            full[r, k + i] = v - xbar
            r += 1

    def rss(mat):
        coef, *_ = np.linalg.lstsq(mat, y, rcond=None)
        return float(np.sum((y - mat @ coef) ** 2))

    rss_full = rss(full)
    rss_tau = rss(full[:, :k])
    common = np.column_stack([full[:, :k], full[:, k:].sum(axis=1)])
    rss_xi = rss(common)
    f_tau = ((rss_tau - rss_full) / k) / (rss_full / m)
    f_xi = ((rss_xi - rss_full) / (k - 1)) / (rss_full / m)
    return f_tau, f_xi


def direct_geometry(layout, a: np.ndarray) -> dict:
    """Re-derive every geometry field, and the matrices behind them, with plain explicit inverses."""
    k = layout.k
    xbar = layout.grand_mean
    rows = np.zeros((layout.n_total, 2 * k))
    r = 0
    for i in range(k):
        for v in layout.x[i]:
            rows[r, i] = 1.0
            rows[r, k + i] = v - xbar
            r += 1
    xtx_inv = np.linalg.inv(rows.T @ rows)
    c_tau = np.vstack([np.zeros((k, k)), np.eye(k)])
    c_xi = np.zeros((2 * k, k - 1))
    c_xi[k, :] = 1.0
    for j in range(k - 1):
        c_xi[k + 1 + j, j] = -1.0
    u = np.hstack([np.ones((k - 1, 1)), -np.eye(k - 1)])
    v22 = c_tau.T @ xtx_inv @ c_tau
    w22 = c_xi.T @ xtx_inv @ c_xi
    v21 = c_tau.T @ xtx_inv @ a
    w21 = c_xi.T @ xtx_inv @ a
    v11 = float(a @ xtx_inv @ a)
    v22_inv = np.linalg.inv(v22)
    w22_inv = np.linalg.inv(w22)
    v_star = v11 - float(v21 @ v22_inv @ v21)
    w_star = v11 - float(w21 @ w22_inv @ w21)
    s21 = v21 - c_tau.T @ xtx_inv @ c_xi @ w22_inv @ w21
    w_cond = w_star - float(s21 @ v22_inv @ s21)
    g_tau = np.eye(2 * k) - xtx_inv @ c_tau @ v22_inv @ c_tau.T
    g_xi = np.eye(2 * k) - xtx_inv @ c_xi @ w22_inv @ c_xi.T
    return {
        "x_design": rows,
        "xtx_inv": xtx_inv,
        "c_tau": c_tau,
        "c_xi": c_xi,
        "u": u,
        "v22": v22,
        "w22": w22,
        "v21": v21,
        "w21": w21,
        "v11": v11,
        "v_star": v_star,
        "w_star": w_star,
        "s21": s21,
        "w_cond": w_cond,
        "g_tau": g_tau,
        "g_xi": g_xi,
        "v22_inv": v22_inv,
        "w22_inv": w22_inv,
        "vproj": v22_inv @ v21,
        "wproj": w22_inv @ w21,
        "sproj": v22_inv @ s21,
        "ga_tau": g_tau.T @ a,
        "ga_xi": g_xi.T @ a,
    }


def conditional_cells(geom, cfg, d, zv=0.0, *, in_a=False, ok_xi=False, quad_v=0.0, quad_w=0.0, vs=0.0, wus=0.0, zs=0.0):
    """Conditional coverage Phi(mu + e) - Phi(mu - e) of cells, each on the region its masks pick.

    The kernel's formulas in one pass of nested np.where over every cell:
    in_a marks first-test acceptance, ok_xi second-test acceptance where the
    first rejects; the defaults put every cell on region C.  Draw parts
    (d, zv = z'vproj, zs = z'sproj) and point parts (vs = s'vproj,
    wus = (U s)'wproj) broadcast together.
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


def assembled(groups, points: int, region_c: np.ndarray) -> np.ndarray:
    """The (points, n) values of the conditional kernel's groups: every point takes the draws' region-C row, then
    each group's region-A and region-B cells their values; no point may be in two groups, and a point in none
    (past both rejection radii) keeps the region-C row."""
    out, covered = np.tile(region_c, (points, 1)), np.zeros(points, dtype=int)
    for rows, a, b, v, *_ in groups:
        group = out[rows]
        group.reshape(-1)[np.concatenate((a, b))] = v
        out[rows] = group
        covered[rows] += 1
    assert (covered <= 1).all(), covered
    return out


def slope_draws(rng, geom, size):
    """Slope noise z (size, k) and d (size,) drawn from ``rng`` as the conditioned estimator draws a chunk."""
    return rng.standard_normal((size, geom.k)) @ np.ascontiguousarray(geom.v22_chol).T, rng.chisquare(geom.m, size)


def full_draws(rng, geom, size):
    """The full noise delta (size, 2k) and d (size,) drawn from ``rng`` as the naive estimator draws a chunk."""
    delta = rng.standard_normal((size, 2 * geom.k)) @ np.ascontiguousarray(geom.noise_chol).T
    return delta, rng.chisquare(geom.m, size)


def _column_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j a[:, j] * b[:, j] over the columns of (n, k) arrays, j in increasing order."""
    out = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def slope_noise_reference(z, d, geom) -> tuple:
    """(d, vz, zvz, wuz, zwz) of SlopeNoise.of: each product column-major, then copied to (k, n) rows."""
    vz = z @ np.ascontiguousarray(geom.v22_inv)
    uz = z @ np.ascontiguousarray(geom.u).T
    wuz = uz @ np.ascontiguousarray(geom.w22_inv)
    return d, vz.T.copy(), _column_inner(vz, z), wuz.T.copy(), _column_inner(wuz, uz)


def kernel_draws_reference(z, d, geom) -> tuple:
    """(noise, zs, zv) of KernelDraws: the SlopeNoise reference, z'sproj and z'vproj."""
    return slope_noise_reference(z, d, geom), z @ geom.sproj, z @ geom.vproj


def event_noise_reference(delta, d, geom) -> tuple:
    """(noise, tau, xi, full) of EventNoise.of."""
    noise = slope_noise_reference(delta[:, geom.k :], d, geom)
    return noise, delta @ geom.ga_tau, delta @ geom.ga_xi, delta @ geom.a


def raw_fit_reference(pipe, y) -> tuple:
    """(beta_hat, rss_full, beta_tau, rss_tau, beta_xi, rss_xi) of _RawPipeline.fit, with C-ordered matrices."""
    proj, g_tau, g_xi, x_design = (np.ascontiguousarray(m) for m in (pipe.proj, pipe.g_tau, pipe.g_xi, pipe.x_design))
    beta_hat = y @ proj.T
    beta_tau, beta_xi = beta_hat @ g_tau.T, beta_hat @ g_xi.T

    def rss(beta):
        return np.sum((y - beta @ x_design.T) ** 2, axis=-1)

    return beta_hat, rss(beta_hat), beta_tau, rss(beta_tau), beta_xi, rss(beta_xi)


def past_radii(geom, cfg, noise, slopes) -> np.ndarray:
    """(P, 2): whether each slope point lies beyond each rejection radius (that test rejects on every draw)."""
    from ancova_cp.selection import SlopeTerms, f_thresholds, rejection_radii

    terms = SlopeTerms.of(np.atleast_2d(slopes), geom)
    return np.sqrt(np.hstack([terms.svs, terms.usu])) > rejection_radii(geom, noise, f_thresholds(noise.d, geom, cfg))


def certified(geom, cfg, noise, slopes) -> np.ndarray:
    """Whether each slope point lies beyond both rejection radii, so the kernel skips it."""
    return past_radii(geom, cfg, noise, slopes).all(axis=1)


def raw_simulate_reference(beta, sigma, layout, cfg, a, runs, seed, geom=None) -> tuple:
    """(raw estimate, SE, event rate, agreement, worst residual-sum error) of the oracle's chunk loop, drawn and
    fitted the plain way: responses mean + sigma * eps, residual sums np.sum((y - X beta) ** 2, axis=-1) and the
    event path's slopes beta_hat / sigma - gamma, each a fresh array.  The oracle must match it bit for bit."""
    from ancova_cp.montecarlo import _chunk_sizes, _stream
    from ancova_cp.oracle import _pipeline
    from ancova_cp.selection import EventNoise, SlopeTerms, events

    beta, a = np.asarray(beta, dtype=float), np.asarray(a, dtype=float)
    pipe = _pipeline(layout)
    k, m = pipe.k, pipe.m
    v11, v_star, w_star = pipe.contrast_scalars(a)
    theta, gamma = float(a @ beta), beta / sigma
    mean = pipe.rows @ beta
    raw_covers = event_covers = agree = 0
    worst = 0.0
    for chunk, size in enumerate(_chunk_sizes(runs)):
        eps = sigma * _stream(seed, "oracle", chunk).standard_normal((size, layout.n_total))
        beta_hat, rss_full, beta_tau, rss_tau, beta_xi, rss_xi = raw_fit_reference(pipe, mean + eps)
        in_a = ((rss_tau - rss_full) / k) / (rss_full / m) <= cfg.l_tau
        in_b = ~in_a & (((rss_xi - rss_full) / (k - 1)) / (rss_full / m) <= cfg.l_xi)
        center = np.where(in_a, beta_tau @ a, np.where(in_b, beta_xi @ a, beta_hat @ a))
        half = np.where(
            in_a,
            cfg.t_mk * np.sqrt(rss_tau / (m + k)) * math.sqrt(v_star),
            np.where(
                in_b,
                cfg.t_mk1 * np.sqrt(rss_xi / (m + k - 1)) * math.sqrt(w_star),
                cfg.t_m * np.sqrt(rss_full / m) * math.sqrt(v11),
            ),
        )
        hits = np.abs(center - theta) <= half
        raw_covers += int(np.count_nonzero(hits))
        slopes_hat = beta_hat[:, k:]
        pred = rss_full + np.sum((slopes_hat @ pipe.v22_inv) * slopes_hat, axis=1)
        worst = max(worst, float(np.max(np.abs(rss_tau - pred) / rss_tau)))
        if geom is not None:
            noise = EventNoise.of(beta_hat / sigma - gamma, rss_full / sigma**2, geom)
            covers = events(noise, SlopeTerms.of(gamma[None, k:], geom), geom, cfg).covers_selected[0]
            event_covers += int(np.count_nonzero(covers))
            agree += int(np.count_nonzero(hits == covers))
    p_hat = raw_covers / runs
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / runs), event_covers / runs, agree / runs, worst
