"""Deterministic numerical kernels shared by the design, analysis, and
simulation layers: adaptive quadrature with declared breakpoints, bracketed
root finding, the standard-normal distribution, and seeded RNG substreams.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np
from scipy import integrate as _scipy_integrate
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


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    breakpoints: Iterable[float] = (),
) -> float:
    """Integrate ``f`` over ``[lo, hi]`` with adaptive Gauss-Kronrod quadrature
    to an absolute error of 1e-10 or a relative error of 1e-9, in at most 200
    subintervals.

    ``breakpoints`` declares interior points where the integrand kinks; the
    interval is split there before adaptive refinement, so piecewise-smooth
    integrands converge at full order.

    Raises
    ------
    QuadratureError
        If that accuracy is not reached within 200 subintervals; the partial
        estimate is attached to the exception.
    """
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError("integration bounds must be finite")
    if lo > hi:
        raise DomainError(f"integration bounds out of order: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    interior = sorted({float(b) for b in breakpoints if lo < b < hi})
    result = _scipy_integrate.quad(
        f,
        lo,
        hi,
        points=interior or None,
        epsabs=1e-10,
        epsrel=1e-9,
        limit=200,
        full_output=1,
    )
    # quad appends an explanatory message exactly when it could not converge
    if len(result) > 3:
        raise QuadratureError(
            f"quadrature did not converge on [{lo}, {hi}]: {result[3]}",
            partial_estimate=float(result[0]),
        )
    return float(result[0])


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
