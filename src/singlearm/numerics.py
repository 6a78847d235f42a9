"""Deterministic numerical kernels shared by the design, analysis, and
simulation layers: adaptive quadrature of several integrands at once on
shared array nodes, with declared breakpoints; bracketed root finding by
Brent's method, which stops once half the bracket is below
``(abs_tol + 4 eps |x|) / 2``; the standard-normal distribution from the
standard library; and seeded RNG substreams.
"""

from __future__ import annotations

import math
import operator
import statistics
import sys
from typing import Callable, Iterable

import numpy as np

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
_MAX_ROOT_ITERATIONS = 200
_ROOT_REL_TOL = 4 * sys.float_info.epsilon
_STANDARD_NORMAL = statistics.NormalDist()


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
    """Locate a root of ``g`` inside the bracket ``[lo, hi]`` by Brent's
    method (Brent 1973), in at most 200 iterations.

    Each step tries a secant or inverse quadratic interpolation step and
    bisects instead when that step would not shrink the bracket fast enough,
    so convergence is guaranteed whenever the bracket encloses a sign
    change. It stops at the bracket end x where ``|g|`` is smaller once half
    the bracket is below ``(abs_tol + 4 eps |x|) / 2``, and returns x. Each
    bracket end is evaluated once.

    Raises
    ------
    BracketError
        If ``g`` has the same sign at both bracket ends.
    NumericalError
        If 200 iterations do not shrink the bracket to ``abs_tol``.
    """
    if not lo < hi:
        raise DomainError(f"bracket out of order: [{lo}, {hi}]")
    x_pre, x_cur = float(lo), float(hi)
    f_pre, f_cur = float(g(x_pre)), float(g(x_cur))
    if f_pre == 0.0:
        return x_pre
    if f_cur == 0.0:
        return x_cur
    if not (f_pre < 0.0 < f_cur or f_cur < 0.0 < f_pre):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: g(lo)={f_pre:.6g}, g(hi)={f_cur:.6g}"
        )
    # x_cur is the best point, x_blk the other end of the bracket and x_pre
    # the previous point; s_cur and s_pre are the last two steps
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ROOT_ITERATIONS):
        if f_pre < 0.0 < f_cur or f_cur < 0.0 < f_pre:
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = (abs_tol + _ROOT_REL_TOL * abs(x_cur)) / 2
        s_bis = (x_blk - x_cur) / 2
        if f_cur == 0.0 or abs(s_bis) < delta:
            return x_cur
        s_try = None
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:  # secant
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
        if s_try is not None and 2 * abs(s_try) < min(abs(s_pre), 3 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else (delta if s_bis > 0 else -delta)
        f_cur = float(g(x_cur))
    raise NumericalError(
        f"root finding did not converge within {_MAX_ROOT_ITERATIONS} iterations"
    )


def normal_cdf(x: float) -> float:
    """Standard-normal distribution function, accurate to double precision."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile(p: float) -> float:
    """Standard-normal quantile function; inverse of :func:`normal_cdf`.

    Raises
    ------
    DomainError
        If the probability lies outside the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError("normal_quantile requires probabilities in (0, 1)")
    return _STANDARD_NORMAL.inv_cdf(p)


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Return an independent, reproducible RNG stream.

    Streams are keyed by ``(master_seed, index)`` on a counter-based
    generator, so any worker can recreate stream ``index`` without touching
    the others; this is what makes parallel simulation results independent
    of the worker count. Both keys must be whole numbers: a fraction would
    otherwise be truncated onto another key's stream.
    """
    try:
        master_seed, index = operator.index(master_seed), operator.index(index)
    except TypeError:
        raise DomainError(
            f"seed and stream index must be whole numbers, got ({master_seed!r}, {index!r})"
        ) from None
    if not (0 <= master_seed < 2**64 and 0 <= index < 2**64):
        raise DomainError(
            f"seed and stream index must lie in [0, 2**64), got ({master_seed}, {index})"
        )
    key = np.array([master_seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
