"""The scalar multi-language consistency check, kept as the oracle for the
one that runs through ``metrics.check_pairs``.

This is the former body of
``propositions.check_multi_language_consistency``, unchanged: every
ordered language pair and prompt group in turn, each side annealed with
``core.anneal``, embedded when the supports differ, then one forward-KL
``f_divergence``.  ``tests/test_check_paths.py`` asserts that the lockstep
check gives the same status, detail and bits.
"""

from __future__ import annotations

from xlconsist.core import DivergenceSpec, anneal, embed, f_divergence, round_trip
from xlconsist.objectives import n_language_optimum
from xlconsist.propositions import CheckResult, _translators_invertible
from xlconsist.scenario import Scenario, cocycle_violations


def check_multi_language_consistency(s: Scenario, optimum=None, tol: float = 1e-9) -> CheckResult:
    cid = "multi-language-consistency"
    if s.n_langs < 3:
        return CheckResult(cid, "skipped", "needs at least three languages")
    if not s.strengths.is_balanced():
        return CheckResult(cid, "skipped", "strengths are not rank-one balanced")
    if not _translators_invertible(s):
        return CheckResult(cid, "skipped", "translators are not invertible")
    if cocycle_violations(s):
        return CheckResult(cid, "skipped", "translators do not satisfy the cocycle identity")
    optimum = n_language_optimum(s) if optimum is None else optimum
    worst = 0.0
    for m in s.lang_ids:
        for n in s.lang_ids:
            if m == n:
                continue
            u_m = s.strengths.u[m]
            u_n = s.strengths.u[n]
            for pt in s.alignment.prompt_tuples:
                x_m = pt[m]
                direct = anneal(optimum.row(m, x_m), u_n)
                trip = round_trip(s.translator(m, n), optimum.policy[n],
                                  s.translator(n, m), x_m)
                trip = anneal(trip, u_m)
                if direct.support != trip.support:
                    universe = sorted(set(direct.support) | set(trip.support))
                    direct, trip = embed(direct, universe), embed(trip, universe)
                d = f_divergence(DivergenceSpec("forward-kl"), direct, trip)
                worst = max(worst, d)
                if d > tol:
                    return CheckResult(cid, "fail",
                                       f"pair ({m},{n}) at prompt {x_m}",
                                       observed=d, expected=f"<= {tol}")
    return CheckResult(cid, "pass", f"all ordered pairs, worst divergence {worst:.3e}",
                       observed=worst, expected=f"<= {tol}")
