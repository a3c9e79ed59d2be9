"""The dictionary pushforward, kept as the oracle for the array one in
``core``.

``pushforward`` is the former body of ``core.pushforward``, unchanged:
one list of terms per output ID, appended in ascending input order, and
one ``logsumexp`` call per output.  ``tests/test_pushforward.py`` asserts
that ``core.pushforward`` gives the same bits and raises the same errors.
"""

from __future__ import annotations

import math

import numpy as np

from xlconsist.core import LogDist, StochasticKernel, StructuralError, logsumexp


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
