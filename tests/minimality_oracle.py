"""The minimality check as ``propositions`` ran it before it scored
perturbations as stacks, kept as the oracle for the one it has now.

``_perturbed_rows`` and ``_minimality`` are their former bodies, unchanged:
each perturbation builds one ``LogDist`` per row and one
``StochasticKernel`` per language, and is scored by a whole
``n_language_total`` call.  That total is ``objective_oracle``'s, the
objective before it read targets at the reference support, so no
arithmetic is shared with the package.  ``tests/test_minimality_oracle.py``
asserts that the stacked check gives the same status, detail and bits.
"""

from __future__ import annotations

import math

import numpy as np
from objective_oracle import n_language_total

from xlconsist.core import LogDist, StochasticKernel
from xlconsist.objectives import ClosedFormOptimum
from xlconsist.propositions import _MIN_TV, CheckResult
from xlconsist.scenario import Scenario


def _perturbed_rows(kernel: StochasticKernel, rng: np.random.Generator) -> StochasticKernel:
    """Tilt every row toward a random distribution by at least ``_MIN_TV``."""
    rows = {}
    for p, row in kernel.rows.items():
        while True:
            q = rng.random(len(row.support)) + 1e-6
            q /= q.sum()
            base_tv = 0.5 * float(np.abs(row.probs - q).sum())
            if base_tv >= 10 * _MIN_TV:
                break
        lam = min(1.0, (2.0 * _MIN_TV) / base_tv)
        mix = (1.0 - lam) * row.probs + lam * q
        rows[p] = LogDist.from_probs(row.support, mix / mix.sum())
    return StochasticKernel(kernel.domain, kernel.codomain, rows)


def _minimality(
    s: Scenario,
    optimum: ClosedFormOptimum,
    check_id: str,
    n_perturbations: int = 100,
    seed: int = 0,
) -> CheckResult:
    best = n_language_total(optimum.policy, s, optimum.targets)
    if not math.isfinite(best):  # every margin would be inf - inf = nan
        return CheckResult(check_id, "fail", f"objective at the optimum is {best}, so no margin "
                           f"is defined; optimum.floored {optimum.floored}",
                           observed=float(best), expected="finite objective, margin > 0")
    rng = np.random.default_rng(seed)
    worst_margin = math.inf
    for _ in range(n_perturbations):
        perturbed = {lang: _perturbed_rows(k, rng) for lang, k in optimum.policy.items()}
        margin = n_language_total(perturbed, s, optimum.targets) - best
        worst_margin = min(worst_margin, margin)
        if margin <= 0:
            return CheckResult(check_id, "fail", "a perturbation matched or beat the optimum",
                               observed=float(margin), expected="margin > 0")
    return CheckResult(check_id, "pass",
                       f"{n_perturbations} perturbations, smallest margin {worst_margin:.3e}",
                       observed=float(worst_margin), expected="margin > 0")
