"""The Monte-Carlo round-trip sampler, kept as the oracle for the one in
``objectives``.

``_sample_rows``, the first-stage sampler and the count loop are the former
body of ``objectives.round_trip_target``, unchanged: a padded matrix of
cumulative rows searched by counting ``cum < u``, and one dictionary
lookup per sample.  ``_reachable_support`` is the former ``objectives``
helper, unchanged: a walk over the positive-mass entries of each stage.
``tests/test_mc_sampler.py`` asserts that ``objectives.round_trip_target``
gives the same bits.
"""

from __future__ import annotations

import numpy as np

from xlconsist.core import LogDist, round_trip
from xlconsist.objectives import MonteCarloConfig
from xlconsist.scenario import Scenario


def _reachable_support(tau_out, pi, tau_back, prompt) -> tuple[int, ...]:
    support: set[int] = set()
    for xp, p_xp in zip(tau_out.row(prompt).support, tau_out.row(prompt).probs):
        if p_xp == 0.0:
            continue
        for yp, p_yp in zip(pi.row(xp).support, pi.row(xp).probs):
            if p_yp == 0.0:
                continue
            back = tau_back.row(yp)
            support.update(i for i, q in zip(back.support, back.probs) if q > 0.0)
    return tuple(sorted(support))


def _sample_rows(rows: dict[int, LogDist], keys: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample one response per key, vectorized over samples."""
    uniq = np.unique(keys)
    index = {k: i for i, k in enumerate(uniq)}
    width = max(len(rows[k].support) for k in uniq)
    cums = np.ones((len(uniq), width))
    for k in uniq:
        c = np.cumsum(rows[k].probs)
        cums[index[k], : len(c)] = c
    row_idx = np.array([index[k] for k in keys])
    picked = np.sum(cums[row_idx] < u[:, None], axis=1)
    out = np.empty(len(keys), dtype=int)
    for k in uniq:
        sup = np.asarray(rows[k].support)
        mask = keys == k
        out[mask] = sup[np.minimum(picked[mask], len(sup) - 1)]
    return out


def round_trip_target(
    scenario: Scenario,
    lang: int,
    via: int,
    prompt: int,
    mc: MonteCarloConfig | None = None,
) -> LogDist:
    """The distribution of translate-respond-translate-back for one prompt.

    Exact (full marginalization) when ``mc`` is omitted or when both
    translators are deterministic, in which case any sampling budget
    returns the identical exact result.  Otherwise estimated from ``mc``
    samples, smoothed at the probability floor, and renormalized.
    """
    tau_out = scenario.translator(lang, via)
    tau_back = scenario.translator(via, lang)
    pi = scenario.ref[via]
    if mc is None or (tau_out.is_deterministic() and tau_back.is_deterministic()):
        return round_trip(tau_out, pi, tau_back, prompt)

    support = _reachable_support(tau_out, pi, tau_back, prompt)
    rng = np.random.default_rng(mc.seed)
    u = rng.random((mc.samples, 3))
    first = tau_out.row(prompt)
    cum = np.cumsum(first.probs)
    xp_idx = np.minimum(np.sum(cum < u[:, 0][:, None], axis=1), len(cum) - 1)
    xs = np.asarray(first.support)[xp_idx]
    ys = _sample_rows(dict(pi.rows), xs, u[:, 1])
    zs = _sample_rows(dict(tau_back.rows), ys, u[:, 2])
    counts = np.zeros(len(support))
    pos = {i: k for k, i in enumerate(support)}
    for z in zs:
        counts[pos[int(z)]] += 1.0
    return LogDist.from_probs(support, counts / mc.samples).floored()
