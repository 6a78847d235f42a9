"""Deterministic numerical kernels shared by the design, analysis, and
simulation layers: adaptive quadrature of several integrands at once on
shared array nodes, with declared breakpoints; bracketed root finding; the
standard-normal distribution; and seeded RNG substreams.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np
from scipy import optimize as _scipy_optimize
from scipy import special as _scipy_special

from .errors import BracketError, DomainError, NumericalError, QuadratureError

__all__ = [
    "integrate",
    "find_root",
    "normal_cdf",
    "normal_quantile",
    "substream",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_MAX_SUBINTERVALS = 200


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    breakpoints: Iterable[float] = (),
) -> float | np.ndarray:
    """Integrate ``f`` over ``[lo, hi]`` with an adaptive 10-point
    Gauss-Legendre rule to an estimated absolute error of 1e-13 or relative
    error of 1e-12, in at most 200 subintervals.

    ``f`` maps a 1-D array of nodes to one row of values per integrand, or
    to a 1-D array for a single integrand; the result holds one value per
    row, a float for a 1-D ``f``. Each row is refined on its own, and its
    accepted pieces are summed exactly, so its value does not depend on the
    rows beside it. A row is finished once the differences between the rule
    on each interval and on its two halves sum to its tolerance at most;
    until then, an interval whose difference is within its share of the
    tolerance, in proportion to its width, is accepted, and the others are
    halved. That difference bounds the error of the halves about as closely
    as asked, so the tolerance is set where design numbers keep 12 digits.

    ``breakpoints`` declares interior points where the integrand kinks; the
    interval is split there before adaptive refinement, so piecewise-smooth
    integrands converge at full order.

    Raises
    ------
    QuadratureError
        If a row needs more than 200 subintervals.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("integration bounds must be finite")
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    edges = np.array([lo, *sorted({float(b) for b in breakpoints if lo < b < hi}), hi], dtype=float)
    a, b = edges[:-1], edges[1:]
    whole, ndim = _rule(f, a, b)
    span = (hi - lo) or 1.0  # a zero-width interval integrates to zero at once
    active = np.ones(whole.shape, dtype=bool)
    subintervals = np.full(len(whole), len(a))
    values, errors = [], []
    while True:
        mid = (a + b) / 2
        estimates, _ = _rule(f, np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = np.split(estimates, 2, axis=-1)
        halves = left + right
        error = np.abs(halves - whole)
        tol = np.maximum(1e-13, 1e-12 * np.abs(_row_sums(*values, np.where(active, halves, 0.0))))
        finished = _row_sums(*errors, np.where(active, error, 0.0)) <= tol
        done = active & (finished[:, None] | (error <= tol[:, None] * ((b - a) / span)))
        values.append(np.where(done, halves, 0.0))
        errors.append(np.where(done, error, 0.0))
        active &= ~done
        subintervals += active.sum(axis=-1)
        if subintervals.max() > _MAX_SUBINTERVALS:
            raise QuadratureError(
                f"quadrature did not converge on [{lo}, {hi}] within {_MAX_SUBINTERVALS} subintervals"
            )
        split = active.any(axis=0)
        if not split.any():
            break
        whole = np.concatenate([left[:, split], right[:, split]], axis=-1)
        active = np.tile(active[:, split], 2)
        a, b = np.concatenate([a[split], mid[split]]), np.concatenate([mid[split], b[split]])
    result = _row_sums(*values)
    return float(result[0]) if ndim == 1 else result


def _row_sums(*pieces: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each row across the pieces, whatever their
    order or the zeros between them."""
    return np.array([math.fsum(row) for row in np.concatenate(pieces, axis=-1)])


def _rule(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """The Gauss-Legendre rule on each interval [a_i, b_i], one row of
    estimates per integrand, and the number of dimensions of f's values."""
    half = (b - a) / 2
    nodes = (a + half)[:, None] + half[:, None] * _GL_NODES
    values = np.asarray(f(nodes.ravel()), dtype=float)
    estimates = (values.reshape(-1, *nodes.shape) * _GL_WEIGHTS).sum(axis=-1) * half
    return estimates, values.ndim


def find_root(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    abs_tol: float = 1e-9,
) -> float:
    """Locate a root of ``g`` inside the bracket ``[lo, hi]`` to within
    ``abs_tol``, in at most 200 iterations.

    Uses a safeguarded inverse-quadratic/bisection hybrid, so convergence is
    guaranteed whenever the bracket encloses a sign change.

    Raises
    ------
    BracketError
        If ``g`` has the same sign at both bracket ends.
    NumericalError
        If 200 iterations do not shrink the bracket to ``abs_tol``.
    """
    if not lo < hi:
        raise DomainError(f"bracket out of order: [{lo}, {hi}]")
    g_lo = float(g(lo))
    g_hi = float(g(hi))
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    if g_lo * g_hi > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={g_lo:.6g}, g(hi)={g_hi:.6g}"
        )
    root, info = _scipy_optimize.brentq(
        g,
        lo,
        hi,
        xtol=abs_tol,
        maxiter=200,
        full_output=True,
        disp=False,
    )
    if not info.converged:
        raise NumericalError(
            "root finding did not converge within 200 iterations"
        )
    return float(root)


def normal_cdf(x):
    """Standard-normal distribution function, accurate to double precision."""
    return _scipy_special.ndtr(x)


def normal_quantile(p):
    """Standard-normal quantile function; inverse of :func:`normal_cdf`.

    Raises
    ------
    DomainError
        If any probability lies outside the open interval (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise DomainError("normal_quantile requires probabilities in (0, 1)")
    out = _scipy_special.ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Return an independent, reproducible RNG stream.

    Streams are keyed by ``(master_seed, index)`` on a counter-based
    generator, so any worker can recreate stream ``index`` without touching
    the others; this is what makes parallel simulation results independent
    of the worker count.
    """
    if not (0 <= master_seed < 2**64 and 0 <= index < 2**64):
        raise DomainError(
            f"seed and stream index must lie in [0, 2**64), got ({master_seed}, {index})"
        )
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
