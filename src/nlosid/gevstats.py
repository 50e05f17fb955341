"""Generalized extreme value distribution: evaluation, fitting, fit quality.

Parameter convention: shape gamma, location mu, scale sigma > 0, with

    t(x) = (1 + gamma * (x - mu) / sigma) ** (-1 / gamma)      gamma != 0
    t(x) = exp(-(x - mu) / sigma)                              gamma == 0

    pdf(x) = t(x) ** (gamma + 1) * exp(-t(x)) / sigma
    cdf(x) = exp(-t(x))

Positive gamma gives a heavy upper tail with support bounded below, negative
gamma a bounded upper tail, and |gamma| below 1e-9 is treated as the limit
case.  Outside the support the density is zero and the cdf saturates at the
corresponding tail value.

Fitting is maximum likelihood: a Nelder-Mead search over (gamma, log sigma,
mu) started from a probability-weighted-moment estimate, with an infinite
penalty whenever a sample falls outside the candidate support.  The search
is a numpy port of scipy.optimize's non-adaptive Nelder-Mead, step for
step, so fitting needs numpy alone.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import POSITIVE, ConfigError, DataFormatError, FitError, Record

GUMBEL_SHAPE_EPS = 1e-9

_EULER = 0.5772156649015329
_MAX_FIT_ITER = 500
_FIT_TOL = 1e-10


@dataclass(frozen=True)
class GevParams(Record):
    error = DataFormatError

    gamma: float     # shape
    mu: float        # location
    sigma: Annotated[float, POSITIVE]     # scale

    def support(self) -> tuple[float, float]:
        """Open interval on which the density is positive."""
        if abs(self.gamma) < GUMBEL_SHAPE_EPS:
            return (-math.inf, math.inf)
        edge = self.mu - self.sigma / self.gamma
        if self.gamma > 0:
            return (edge, math.inf)
        return (-math.inf, edge)


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def gev_pdf(x, params: GevParams):
    """Density at x (scalar or array).  Zero outside the support."""
    arr, scalar = _as_array(x)
    with np.errstate(over="ignore", invalid="ignore"):
        z = (np.atleast_1d(arr) - params.mu) / params.sigma
        out = np.zeros(z.shape)
        if abs(params.gamma) < GUMBEL_SHAPE_EPS:
            out = np.exp(-np.exp(-z) - z) / params.sigma
        else:
            t = 1.0 + params.gamma * z
            inside = t > 0.0
            ti = t[inside] ** (-1.0 / params.gamma)
            out[inside] = ti ** (params.gamma + 1.0) * np.exp(-ti) / params.sigma
    out = np.where(np.isfinite(out), out, 0.0)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def gev_cdf(x, params: GevParams):
    """Distribution function at x (scalar or array).  Saturates to 0 below
    a lower support edge and 1 above an upper one."""
    arr, scalar = _as_array(x)
    with np.errstate(over="ignore"):
        z = (np.atleast_1d(arr) - params.mu) / params.sigma
        if abs(params.gamma) < GUMBEL_SHAPE_EPS:
            out = np.exp(-np.exp(-z))
        else:
            t = 1.0 + params.gamma * z
            inside = t > 0.0
            # below the lower edge (gamma > 0) the cdf is 0, above the
            # upper edge (gamma < 0) it is 1
            out = np.full(z.shape, 0.0 if params.gamma > 0 else 1.0)
            out[inside] = np.exp(-t[inside] ** (-1.0 / params.gamma))
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _neg_log_likelihood(gamma: float, sigma: float, mu: float,
                        x: np.ndarray) -> float:
    n = len(x)
    z = (x - mu) / sigma
    with np.errstate(over="ignore"):
        if abs(gamma) < GUMBEL_SHAPE_EPS:
            val = n * math.log(sigma) + float(np.sum(z + np.exp(-z)))
        else:
            t = 1.0 + gamma * z
            if np.any(t <= 0.0):
                return math.inf
            val = n * math.log(sigma) \
                + (1.0 + 1.0 / gamma) * float(np.sum(np.log(t))) \
                + float(np.sum(t ** (-1.0 / gamma)))
    return val if math.isfinite(val) else math.inf


def _pwm_init(x_sorted: np.ndarray) -> tuple[float, float, float]:
    """Probability-weighted-moment starting point (gamma0, sigma0, mu0)."""
    n = len(x_sorted)
    j = np.arange(1, n + 1, dtype=float)
    b0 = float(np.mean(x_sorted))
    b1 = float(np.sum((j - 1) / (n - 1) * x_sorted) / n)
    b2 = float(np.sum((j - 1) * (j - 2) / ((n - 1) * (n - 2)) * x_sorted) / n)
    l1, l2 = b0, 2.0 * b1 - b0
    l3 = 6.0 * b2 - 6.0 * b1 + b0
    if l2 <= 0.0:
        return 0.0, max(float(np.std(x_sorted)), 1e-12), b0
    c = 2.0 / (3.0 + l3 / l2) - math.log(2.0) / math.log(3.0)
    k = 7.859 * c + 2.9554 * c * c          # k = -gamma
    if abs(k) < 1e-6:
        sigma = l2 / math.log(2.0)
        return 0.0, sigma, l1 - _EULER * sigma
    k = max(k, -0.99)                        # keep gamma(1 + k) defined
    g1k = math.gamma(1.0 + k)
    sigma = l2 * k / ((1.0 - 2.0 ** (-k)) * g1k)
    if not (sigma > 0.0 and math.isfinite(sigma)):
        sigma = l2 / math.log(2.0)
        return 0.0, sigma, l1 - _EULER * sigma
    mu = l1 - sigma * (1.0 - g1k) / k
    return -k, sigma, mu


def _nelder_mead(objective, x0: np.ndarray) -> np.ndarray:
    """Minimizer of objective by scipy.optimize.minimize's Nelder-Mead as
    gev_fit_mle calls it: the same start simplex, coefficients (reflect 1,
    expand 2, contract 0.5, shrink 0.5), argsort reorder and stop rule
    (xatol 1e-8, fatol _FIT_TOL, _MAX_FIT_ITER iterations counting the
    start), with the same arithmetic, so it returns scipy's x bit for bit.
    """
    n = len(x0)
    sim = np.repeat(x0[None, :], n + 1, axis=0)
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([objective(v) for v in sim])
    order = np.argsort(fsim)
    sim, fsim = sim[order], fsim[order]
    for _ in range(1, _MAX_FIT_ITER):
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-8
                and np.max(np.abs(fsim[0] - fsim[1:])) <= _FIT_TOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = objective(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = objective(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:       # contract outside
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = objective(xc)
                accept = fxc <= fxr
            else:                    # contract inside
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = objective(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:                    # shrink toward the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = objective(sim[j])
        order = np.argsort(fsim)
        sim, fsim = sim[order], fsim[order]
    return sim[0]


def gev_fit_mle(samples) -> GevParams:
    """Maximum-likelihood fit of the three parameters to a 1-d sample.

    Raises FitError for fewer than 20 samples, an all-identical sample, or
    a search that cannot find any finite-likelihood parameters.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 20:
        raise FitError(f"need at least 20 samples to fit, got {len(x)}")
    if not np.isfinite(x).all():
        raise FitError("samples contain non-finite values")
    if x.max() == x.min():
        raise FitError("samples are all identical; scale would be zero")

    x_sorted = np.sort(x)
    gamma0, sigma0, mu0 = _pwm_init(x_sorted)
    # shrink the initial shape toward 0 until every sample is in-support
    for _ in range(80):
        if math.isfinite(_neg_log_likelihood(gamma0, sigma0, mu0, x)):
            break
        gamma0 *= 0.5
        if abs(gamma0) < GUMBEL_SHAPE_EPS:
            gamma0 = 0.0
    init_nll = _neg_log_likelihood(gamma0, sigma0, mu0, x)
    if not math.isfinite(init_nll):
        raise FitError("no feasible starting point for the likelihood search")

    def objective(v):
        return _neg_log_likelihood(v[0], math.exp(v[1]), v[2], x)

    best = _nelder_mead(objective,
                        np.array([gamma0, math.log(sigma0), mu0]))
    fitted = GevParams(gamma=float(best[0]), mu=float(best[2]),
                       sigma=float(math.exp(best[1])))
    final_nll = _neg_log_likelihood(fitted.gamma, fitted.sigma, fitted.mu, x)
    if not math.isfinite(final_nll) or final_nll > init_nll:
        # never hand back anything worse than the moment estimate
        return GevParams(gamma=gamma0, mu=mu0, sigma=sigma0)
    return fitted


def cdf_rmse(samples, params: GevParams) -> float:
    """Root-mean-square gap between the fitted cdf and the empirical one at
    the sorted sample points, using plotting positions k / (n + 1)."""
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = len(x)
    if n < 2:
        raise FitError(f"need at least 2 samples for a cdf comparison, got {n}")
    positions = np.arange(1, n + 1) / (n + 1.0)
    return float(np.sqrt(np.mean((gev_cdf(x, params) - positions) ** 2)))


def bootstrap_split(n_samples: int, n_train: int, n_test: int,
                    repeats: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Repeated random train/test index partitions of range(n_samples).

    Each repeat draws n_train indices without replacement and then n_test
    from the remainder, so the two sides never overlap.  Deterministic in
    the seed.
    """
    if n_train < 1 or n_test < 1 or repeats < 1:
        raise ConfigError("n_train, n_test, and repeats must all be positive")
    if n_train + n_test > n_samples:
        raise ConfigError(
            f"cannot draw {n_train} + {n_test} samples from {n_samples}")
    rng = np.random.default_rng(seed)
    splits = []
    for _ in range(repeats):
        perm = rng.permutation(n_samples)
        splits.append((np.sort(perm[:n_train]),
                       np.sort(perm[n_train:n_train + n_test])))
    return splits
