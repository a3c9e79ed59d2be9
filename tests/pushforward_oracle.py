"""The dictionary pushforward, kept as the oracle for the array one in
``core``, with the per-row callers that ran on it.

``pushforward`` is the former body of ``core.pushforward``, unchanged:
one list of terms per output ID, appended in ascending input order, and
one ``logsumexp`` call per output.  ``round_trip`` and
``invertibility_report`` are the former bodies of their ``core`` namesakes,
one prompt or one kernel row at a time, on this ``pushforward``.
``tests/test_pushforward.py`` and ``tests/test_route_pushforward.py``
assert that ``core`` gives the same bits and raises the same errors.
"""

from __future__ import annotations

import math

import numpy as np

from xlconsist.core import (
    InvertibilityReport,
    LogDist,
    StochasticKernel,
    StructuralError,
    logsumexp,
)


def pushforward(outer: StochasticKernel, inner_dist: LogDist) -> LogDist:
    """Marginalize a distribution through a kernel, in log space.

    Zero-mass entries of the inner distribution need no kernel row; a
    positive-mass entry without a row is a structural error naming the ID.
    """
    terms: dict[int, list[float]] = {}
    for y, ly in zip(inner_dist.support, inner_dist.logp):
        if ly == -math.inf:
            continue
        row = outer.row(y)
        for z, lz in zip(row.support, row.logp):
            if lz == -math.inf:
                continue
            terms.setdefault(z, []).append(lz + ly)
    if not terms:
        raise StructuralError("pushforward produced an empty distribution")
    support = sorted(terms)
    logp = [logsumexp(np.array(terms[z])) for z in support]
    return LogDist.from_logp(support, logp)


def round_trip(tau_out: StochasticKernel, pi: StochasticKernel, tau_back: StochasticKernel,
               prompt: int) -> LogDist:
    if tau_out.codomain != pi.domain:
        raise StructuralError(
            f"translator codomain {tau_out.codomain} != model domain {pi.domain}"
        )
    if pi.codomain != tau_back.domain:
        raise StructuralError(
            f"model codomain {pi.codomain} != back-translator domain {tau_back.domain}"
        )
    translated = tau_out.row(prompt)
    responded = pushforward(pi, translated)
    return pushforward(tau_back, responded)


def invertibility_report(mu: StochasticKernel, nu: StochasticKernel,
                         tol: float) -> InvertibilityReport:
    if mu.domain != nu.codomain or nu.domain != mu.codomain:
        return InvertibilityReport(
            False, math.inf,
            f"spaces do not chain: mu {mu.domain}->{mu.codomain}, nu {nu.domain}->{nu.codomain}",
        )
    worst = 0.0
    for first, second in ((nu, mu), (mu, nu)):
        for x, row in first.rows.items():
            try:
                out = pushforward(second, row)
            except StructuralError as err:
                return InvertibilityReport(False, math.inf, str(err))
            tv = 1.0 - out.prob(x)
            if tv > worst:
                worst = tv
    return InvertibilityReport(worst <= tol, worst)
