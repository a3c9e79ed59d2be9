"""Exact finite-support probability algebra in log space.

Conventions used throughout the package:

- Responses and prompts are opaque integer IDs; no string content is ever
  inspected.
- A distribution stores its support as a sorted tuple of IDs together with
  linear probabilities (the canonical serialized form) and natural-log
  probabilities (the arithmetic form).  Exact zeros are represented as
  ``-inf`` log-probabilities, never clamped away silently.
- ``LOG_EPS`` is the smoothing floor used where an operation explicitly
  calls for flooring (Monte-Carlo smoothing, regression targets built from
  zero-mass round trips).  It is *not* applied during ordinary
  construction, so deterministic kernels stay exactly deterministic.
- Infinite divergences are detected explicitly and reported as
  ``INFINITE_DIVERGENCE`` (``math.inf``); they never arise from floating
  overflow.
- Marginals are exact triple sums in a fixed order: ``pushforward`` keeps
  each output's terms in ascending input ID and reduces the outputs with
  equal term counts as one array, with the bits of one ``logsumexp`` each.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

LOG_EPS = math.log(1e-12)

INFINITE_DIVERGENCE = math.inf

NORMALIZATION_TOL = 1e-9


class StructuralError(ValueError):
    """Mismatched supports, non-composable kernels, or missing rows."""


def logsumexp(a: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    m = float(np.max(a)) if a.size else -math.inf
    if m == -math.inf:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(a - m))))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.asarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Temperature:
    """A positive annealing temperature."""

    t: float

    def __post_init__(self):
        if not (self.t > 0):
            raise ValueError(f"temperature must be positive, got {self.t}")


@dataclass(frozen=True, eq=False)
class LogDist:
    """A normalized distribution over a finite set of response IDs.

    ``probs`` is the canonical stored vector (bit-exact through
    serialization); ``logp`` is derived once and used for arithmetic.
    The support is sorted ascending and free of duplicates.
    """

    support: tuple[int, ...]
    probs: np.ndarray
    logp: np.ndarray

    def __post_init__(self):
        sup = tuple(int(i) for i in self.support)
        if list(sup) != sorted(set(sup)):
            raise StructuralError(f"support must be sorted and unique: {sup}")
        probs = _frozen(self.probs)
        logp = _frozen(self.logp)
        if probs.shape != (len(sup),) or logp.shape != (len(sup),):
            raise StructuralError("support/probability lengths differ")
        if np.any(probs < 0):
            raise ValueError("negative probability")
        if np.any(logp > 1e-12):
            raise ValueError("log-probability above 0")
        total = logsumexp(logp)
        if not abs(total) <= NORMALIZATION_TOL:  # also rejects NaN
            raise ValueError(f"distribution not normalized: logsumexp={total!r}")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "logp", logp)

    @classmethod
    def from_probs(cls, support: Iterable[int], probs: Sequence[float]) -> "LogDist":
        p = np.asarray(probs, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.log(p)
        return cls(tuple(support), p, lp)

    @classmethod
    def from_logp(cls, support: Iterable[int], logp: Sequence[float]) -> "LogDist":
        """Build from (possibly unnormalized) log-weights; renormalizes."""
        lp = np.asarray(logp, dtype=float)
        if np.any(np.isnan(lp)) or np.any(lp == math.inf):
            raise ValueError("log-weights must be finite or -inf")
        z = logsumexp(lp)
        if z == -math.inf:
            raise ValueError("all log-weights are -inf")
        lp = lp - z
        return cls(tuple(support), np.exp(lp), lp)

    @classmethod
    def point_mass(cls, support: Iterable[int], on: int) -> "LogDist":
        sup = tuple(support)
        return cls.from_probs(sup, [1.0 if i == on else 0.0 for i in sup])

    @classmethod
    def uniform(cls, support: Iterable[int]) -> "LogDist":
        sup = tuple(support)
        return cls.from_probs(sup, [1.0 / len(sup)] * len(sup))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogDist):
            return NotImplemented
        return self.support == other.support and np.array_equal(self.probs, other.probs)

    def __hash__(self):
        return hash((self.support, self.probs.tobytes()))

    def prob(self, response_id: int) -> float:
        k = bisect_left(self.support, response_id)
        hit = k < len(self.support) and self.support[k] == response_id
        return float(self.probs[k]) if hit else 0.0

    def argmax(self) -> int:
        """Highest-probability ID; ties broken by ascending ID."""
        return self.support[int(np.argmax(self.probs))]

    def ranking(self) -> tuple[int, ...]:
        """IDs ordered by descending probability, ties by ascending ID.

        Sorted on log-probabilities, which keep two masses apart after
        their linear probabilities have both underflowed to zero."""
        order = np.lexsort((self.support, -self.logp))
        return tuple(self.support[k] for k in order)

    def floored(self, log_eps: float = LOG_EPS) -> "LogDist":
        """Raise every entry (including exact zeros) to the floor, renormalize."""
        return LogDist.from_logp(self.support, np.maximum(self.logp, log_eps))


def anneal(d: LogDist, temp: Temperature | float) -> LogDist:
    """Raise a distribution to the given power and renormalize.

    A unit temperature returns the input unchanged, which keeps the
    identity exact rather than merely within rounding.
    """
    t = temp.t if isinstance(temp, Temperature) else float(temp)
    if t == 1.0:
        return d
    logp, probs = anneal_rows(d.logp[None, :], np.array([t]))
    return LogDist(d.support, probs[0], logp[0])


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """:func:`logsumexp` of each row of (n, k) ``a``, same bits; rows need a finite max."""
    m = a.max(axis=1)
    sums = np.exp(a - m[:, None]).sum(axis=1)
    return m + np.array([math.log(s) for s in sums.tolist()])


def anneal_rows(logp: np.ndarray, temps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renormalized ``(logp, probs)`` of each row of an (n, k) array
    annealed at its own temperature, with the bits and checks of
    ``LogDist.from_logp``; unlike :func:`anneal`, it renormalizes at T = 1."""
    bad = ~(temps > 0)
    if bad.any():
        raise ValueError(f"temperature must be positive, got {float(temps[bad][0])}")
    lp = temps[:, None] * logp
    if not (lp < math.inf).all():  # NaN or +inf
        raise ValueError("log-weights must be finite or -inf")
    if (lp.max(axis=1) == -math.inf).any():
        raise ValueError("all log-weights are -inf")
    lp = lp - logsumexp_rows(lp)[:, None]
    if (lp > 1e-12).any():
        raise ValueError("log-probability above 0")
    total = logsumexp_rows(lp)
    off = ~(np.abs(total) <= NORMALIZATION_TOL)
    if off.any():
        raise ValueError(f"distribution not normalized: logsumexp={float(total[off][0])!r}")
    return lp, np.exp(lp)


def entropy(d: LogDist) -> float:
    """Shannon entropy in nats; zero-mass entries contribute nothing."""
    mask = d.probs > 0
    return float(-np.sum(d.probs[mask] * d.logp[mask]))


def total_variation(p: LogDist, q: LogDist) -> float:
    """TV distance over the union of the two supports, summed in ascending
    ID order one term at a time: the builtin ``sum`` compensates its
    rounding from Python 3.12 on, which would change these bits."""
    total = 0.0
    for i in sorted(set(p.support) | set(q.support)):
        total += abs(p.prob(i) - q.prob(i))
    return 0.5 * total


def embed(d: LogDist, universe: Iterable[int]) -> LogDist:
    """Re-express a distribution over a larger support with explicit zeros.

    This is the one sanctioned way to compare distributions whose supports
    differ; nothing in the package zero-pads implicitly.
    """
    uni = tuple(sorted(int(i) for i in universe))
    missing = set(d.support) - set(uni)
    if missing:
        raise StructuralError(f"universe does not cover support: missing {sorted(missing)}")
    return LogDist.from_probs(uni, [d.prob(i) for i in uni])


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """A prompted model: one distribution over responses per prompt ID.

    ``domain`` and ``codomain`` are language-space IDs.  Rows may have
    per-prompt supports; cross-row supports need not agree.
    """

    domain: int
    codomain: int
    rows: Mapping[int, LogDist]

    def __post_init__(self):
        object.__setattr__(self, "rows", dict(self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StochasticKernel):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.codomain == other.codomain
            and self.rows == other.rows
        )

    def row(self, prompt_id: int) -> LogDist:
        try:
            return self.rows[prompt_id]
        except KeyError:
            raise StructuralError(
                f"kernel {self.domain}->{self.codomain} has no row for ID {prompt_id}"
            ) from None

    def is_deterministic(self) -> bool:
        """True iff every row is an exact point mass."""
        return all(
            np.max(r.probs) == 1.0 and np.count_nonzero(r.probs) == 1
            for r in self.rows.values()
        )


def pushforward(outer: StochasticKernel, inner_dist: LogDist) -> LogDist:
    """Marginalize a distribution through a kernel, in log space.

    Zero-mass entries of the inner distribution need no kernel row; a
    positive-mass entry without a row is a structural error naming the ID.
    The finite terms of the live inputs' rows, taken in ascending input
    ID, are stably sorted by output ID; outputs with equal term counts are
    then reduced as one contiguous (n, k) array, which gives each output
    the bits of a one-row :func:`logsumexp` over its terms in input order.
    """
    rows = [(outer.row(y), ly) for y, ly in zip(inner_dist.support, inner_dist.logp.tolist())
            if ly != -math.inf]
    lz = np.concatenate([r.logp for r, _ in rows]) if rows else np.empty(0)
    ids = np.fromiter(chain.from_iterable(r.support for r, _ in rows), np.int64, len(lz))
    order = np.argsort(ids, kind="stable")
    order = order[lz[order] != -math.inf]
    if not len(order):
        raise StructuralError("pushforward produced an empty distribution")
    ids = ids[order]
    terms = lz[order] + np.repeat([ly for _, ly in rows], [len(r.logp) for r, _ in rows])[order]
    edges = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1], [True])))
    first, counts = edges[:-1], edges[1:] - edges[:-1]
    logp = np.empty(len(first))
    for k in set(counts.tolist()):
        at = counts == k
        logp[at] = logsumexp_rows(terms[first[at][:, None] + np.arange(k)])
    return LogDist.from_logp(ids[first].tolist(), logp)


def compose(outer: StochasticKernel, inner: StochasticKernel) -> StochasticKernel:
    """Kernel composition: apply ``inner`` first, then ``outer``."""
    if inner.codomain != outer.domain:
        raise StructuralError(
            f"cannot compose: inner codomain {inner.codomain} != outer domain {outer.domain}"
        )
    rows = {x: pushforward(outer, r) for x, r in inner.rows.items()}
    return StochasticKernel(domain=inner.domain, codomain=outer.codomain, rows=rows)


def round_trip(
    tau_out: StochasticKernel,
    pi: StochasticKernel,
    tau_back: StochasticKernel,
    prompt: int,
) -> LogDist:
    """Translate a prompt out, respond there, translate the response back.

    Marginalizes over every intermediate (prompt, response) pair, so the
    result is the exact triple sum.
    """
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


_GENERATORS = {
    "forward-kl": lambda t: t * math.log(t) if t > 0 else 0.0,
    "reverse-kl": lambda t: -math.log(t),
    "total-variation": lambda t: 0.5 * abs(t - 1.0),
    "chi-square": lambda t: (t - 1.0) ** 2,
}

DIVERGENCE_KINDS = tuple(_GENERATORS)

# summands of each masked divergence, as functions of (p, log p, q, log q)
_TERMS = {
    "forward-kl": lambda p, p_logp, q, q_logp: p * (p_logp - q_logp),
    "reverse-kl": lambda p, p_logp, q, q_logp: q * (q_logp - p_logp),
    "chi-square": lambda p, p_logp, q, q_logp: (p - q) ** 2 / q,
}


@dataclass(frozen=True)
class DivergenceSpec:
    """Selects the convex generator of an f-divergence.

    Every kind satisfies f(1) = 0; convexity is spot-checked in the test
    suite via midpoint inequalities on a grid.
    """

    kind: str = "forward-kl"

    def __post_init__(self):
        if self.kind not in _GENERATORS:
            raise ValueError(f"unknown divergence kind {self.kind!r}; choose from {DIVERGENCE_KINDS}")

    def generator(self, t: float) -> float:
        return _GENERATORS[self.kind](t)


def f_divergence(spec: DivergenceSpec, p: LogDist, q: LogDist) -> float:
    """D_f(p || q) over a shared support; infinite cases reported as a sentinel.

    Supports must be identical; use :func:`embed` first when comparing
    distributions over different candidate universes.
    """
    if p.support != q.support:
        raise StructuralError(
            f"support mismatch: {p.support} vs {q.support}; embed() onto a shared universe first"
        )
    rows = f_divergence_rows(spec.kind, p.probs[None, :], p.logp[None, :],
                             q.probs[None, :], q.logp[None, :])
    return float(rows[0])


def f_divergence_rows(
    kind: str, p: np.ndarray, p_logp: np.ndarray, q_probs: np.ndarray, q_logp: np.ndarray
) -> np.ndarray:
    """D_f(p_i || q_i) for each row i of (n, k) arrays over a shared support.

    A masked sum runs over a contiguous row of only the unmasked terms, so
    it gives the bits of a 1-D sum; zero padding would regroup numpy's
    pairwise sum."""
    DivergenceSpec(kind)  # rejects an unknown kind
    if kind == "total-variation":
        return np.maximum(0.5 * np.abs(p - q_probs).sum(axis=1), 0.0)
    p_zero, q_zero = p == 0, q_probs == 0
    infinite = (p_zero & ~q_zero if kind == "reverse-kl" else q_zero & ~p_zero).any(axis=1)
    mask = ~p_zero if kind == "forward-kl" else ~q_zero
    val = np.full(len(p), INFINITE_DIVERGENCE)
    counts = mask.sum(axis=1)
    for c in set(counts[~infinite].tolist()):
        rows = ~infinite & (counts == c)
        sel = mask & rows[:, None]
        # a subnormal q overflows a chi-square term to +inf, the right value
        with np.errstate(over="ignore", divide="ignore"):
            terms = _TERMS[kind](p[sel], p_logp[sel], q_probs[sel], q_logp[sel])
        val[rows] = terms.reshape(int(rows.sum()), c).sum(axis=1)
    return np.maximum(val, 0.0)


def forward_kl(p: LogDist, q: LogDist) -> float:
    return f_divergence(DivergenceSpec("forward-kl"), p, q)


@dataclass(frozen=True)
class InvertibilityReport:
    invertible: bool
    max_tv: float
    detail: str = ""


def invertibility_report(
    mu: StochasticKernel, nu: StochasticKernel, tol: float
) -> InvertibilityReport:
    """Check that both round-trip compositions are the identity within tol.

    Structural problems (non-chaining spaces, missing rows) yield a
    non-invertible verdict with a diagnostic rather than an exception.
    """
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


def is_invertible_pair(mu: StochasticKernel, nu: StochasticKernel, tol: float) -> bool:
    return invertibility_report(mu, nu, tol).invertible
