"""The scalar consistency search, kept as the oracle for the batched one.

These are the former bodies of ``core.anneal``, ``core.f_divergence``,
``metrics._minimize_over_temperature`` and
``metrics._directional_divergence``, unchanged: one ``LogDist`` per
temperature, checked one at a time.  ``tests/test_batched_search.py``
asserts that ``metrics._search`` and the row functions of ``core`` give the
same bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from xlconsist.core import (
    INFINITE_DIVERGENCE,
    DivergenceSpec,
    LogDist,
    StructuralError,
    Temperature,
    embed,
)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def anneal(d: LogDist, temp: Temperature | float) -> LogDist:
    """Raise a distribution to the given power and renormalize.

    A unit temperature returns the input unchanged, which keeps the
    identity exact rather than merely within rounding.
    """
    t = temp.t if isinstance(temp, Temperature) else float(temp)
    if not (t > 0):
        raise ValueError(f"temperature must be positive, got {t}")
    if t == 1.0:
        return d
    return LogDist.from_logp(d.support, t * d.logp)


def f_divergence(spec: DivergenceSpec, p: LogDist, q: LogDist) -> float:
    """D_f(p || q) over a shared support; infinite cases reported as a sentinel.

    Supports must be identical; use :func:`embed` first when comparing
    distributions over different candidate universes.
    """
    if p.support != q.support:
        raise StructuralError(
            f"support mismatch: {p.support} vs {q.support}; embed() onto a shared universe first"
        )
    pp, qq = p.probs, q.probs
    kind = spec.kind
    q_zero = qq == 0
    p_zero = pp == 0
    if kind == "forward-kl":
        if np.any(q_zero & ~p_zero):
            return INFINITE_DIVERGENCE
        mask = ~p_zero
        val = float(np.sum(pp[mask] * (p.logp[mask] - q.logp[mask])))
    elif kind == "reverse-kl":
        if np.any(p_zero & ~q_zero):
            return INFINITE_DIVERGENCE
        mask = ~q_zero
        val = float(np.sum(qq[mask] * (q.logp[mask] - p.logp[mask])))
    elif kind == "total-variation":
        val = 0.5 * float(np.sum(np.abs(pp - qq)))
    elif kind == "chi-square":
        if np.any(q_zero & ~p_zero):
            return INFINITE_DIVERGENCE
        mask = ~q_zero
        val = float(np.sum((pp[mask] - qq[mask]) ** 2 / qq[mask]))
    else:  # pragma: no cover - guarded by DivergenceSpec
        raise ValueError(kind)
    return max(val, 0.0)


def _minimize_over_temperature(
    objective: Callable[[float], float],
    t_grid: np.ndarray,
    fixed_t: float | None,
) -> tuple[float, float]:
    """Smallest objective value over temperatures and its argmin."""
    if fixed_t is not None:
        return objective(fixed_t), fixed_t
    grid = np.asarray(t_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("temperature grid is empty")
    values = [objective(float(t)) for t in grid]
    k = int(np.argmin(values))
    best_val, best_t = values[k], float(grid[k])
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    if hi - lo > 0:
        # golden-section on log-temperature down to relative width 1e-6
        a, b = lo, hi
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = objective(math.exp(c)), objective(math.exp(d))
        while b - a > 1e-6:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                fc = objective(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                fd = objective(math.exp(d))
            for x, fx in ((c, fc), (d, fd)):
                if fx < best_val:
                    best_val, best_t = fx, math.exp(x)
    return best_val, best_t


def _directional_divergence(
    direct: LogDist,
    trip: LogDist,
    spec: DivergenceSpec,
    t_grid: np.ndarray,
    fixed_t: float | None,
) -> tuple[float, float, bool]:
    extended = direct.support != trip.support
    if extended:
        universe = sorted(set(direct.support) | set(trip.support))
        direct = embed(direct, universe)
        trip = embed(trip, universe)

    def objective(t: float) -> float:
        return f_divergence(spec, direct, anneal(trip, t))

    val, best_t = _minimize_over_temperature(objective, t_grid, fixed_t)
    return val, best_t, extended
