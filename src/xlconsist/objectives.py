"""Consistency objectives and their closed-form optima.

The penalized objective is a fidelity KL to the reference minus a
strength-weighted expected log-likelihood of the round-trip target through
each other language, summed under the prompt priors.  ``round_trip_targets``
builds those targets once, exact or Monte-Carlo; the optimum carries the
map, and every other consumer takes it as an argument.

A policy row must have its reference row's support, as the optimum, its
perturbations, the reference and fitted or loaded policies do.  One helper
reads the targets there once per row, for the tilt and for the objective
of a stack of rows; a zero at positive policy mass makes it infinite.

One tilt, computed in log space, serves both routes to the optimum: the
reference row's log-weights plus each other language's log round-trip
target times the pairwise strength.  Normalized per prompt, it is the
closed-form optimum, which keeps it as it is: the direct route's
regression targets, whose softmax is therefore the optimum by construction
(up to the floor below), so matching unnormalized scores to them (any
norm) recovers it without estimating a normalizer.

Zero masses would drive the tilt to minus infinity, so they are lifted to
``LOG_EPS``.  The optimum keeps the reference's zeros, and those of each
target with no zero at positive reference mass; a row where a target has
one needed the floor and is flagged.  The two-weight bilingual formula
lives on in the tests as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from xlconsist.core import (
    LOG_EPS,
    LogDist,
    RowStack,
    StochasticKernel,
    StructuralError,
    logsumexp,
    raise_first,
    require_int,
    require_kernels,
    round_trips,
)
from xlconsist.scenario import Scenario


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling budget for estimated round trips."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        require_int("samples", self.samples, 1)
        require_int("seed", self.seed, 0)


@dataclass(frozen=True)
class PcoValue:
    """One prompt's penalized-objective decomposition."""

    fidelity: float
    reward_term: float
    total: float


@dataclass(frozen=True, eq=False)
class LogitTable:
    """Unnormalized per-candidate scores, one row per prompt.

    Rows are defined up to a per-prompt additive constant as far as the
    induced policy is concerned; the raw regression loss is not shift
    invariant, only its softmax is.
    """

    supports: Mapping[int, tuple[int, ...]]
    rows: Mapping[int, np.ndarray]

    def __post_init__(self):
        sups = {int(p): tuple(s) for p, s in self.supports.items()}
        rows = {}
        for p, r in self.rows.items():
            arr = np.asarray(r, dtype=float)
            if p not in sups or arr.shape != (len(sups[p]),):
                raise StructuralError(f"logit row {p} misaligned with its support")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"logit row {p} has non-finite entries")
            arr = arr.copy()
            arr.flags.writeable = False
            rows[int(p)] = arr
        if set(rows) != set(sups):
            raise StructuralError("logit rows and supports cover different prompts")
        object.__setattr__(self, "supports", sups)
        object.__setattr__(self, "rows", rows)

    def prompts(self) -> tuple[int, ...]:
        return tuple(sorted(self.rows))

    def policy_row(self, prompt: int) -> LogDist:
        return LogDist.from_logp(self.supports[prompt], self.rows[prompt])

    def with_row(self, prompt: int, values: np.ndarray) -> "LogitTable":
        rows = dict(self.rows)
        rows[prompt] = values
        return LogitTable(self.supports, rows)


def policy_kernels(table: LogitTable, scenario: Scenario) -> dict[int, StochasticKernel]:
    """Softmax the table into one kernel per language."""
    out = {}
    for lang in scenario.lang_ids:
        rows = {p: table.policy_row(p) for p in scenario.space(lang).prompts}
        out[lang] = StochasticKernel(domain=lang, codomain=lang, rows=rows)
    return out


def initial_logits(scenario: Scenario) -> LogitTable:
    """Warm start at the reference scores (floored so entries stay finite)."""
    supports, rows = {}, {}
    for lang in scenario.lang_ids:
        for p in scenario.space(lang).prompts:
            row = scenario.ref[lang].row(p)
            supports[p] = row.support
            rows[p] = np.maximum(row.logp, LOG_EPS)
    return LogitTable(supports, rows)


# ---------------------------------------------------------------------------
# round-trip targets


def _sampler(kernel: StochasticKernel) -> Callable:
    """Tabulate every row of the kernel once, and return the inverse-CDF draw
    ``sample(ids, keys, u, reach)``: one response per key from the row for
    ``ids[key]``, all keys at once, ``u`` broadcast against ``keys``.  It
    returns the sorted response IDs, one index into them per key, and the
    responses each prompt reaches.  ``reach[i, j]`` says prompt ``i`` reaches
    ``ids[j]`` with positive mass; a reached ID without a row raises, naming
    the smallest.  Column j of the table is row j's cumulative sum, taken
    zero-padded to the rows' width W (same bits) and padded with ``+inf``, so
    counting its entries below a draw is ``searchsorted(side="left")``.
    Count k of row j answers ``pick[j * (W + 1) + k]``: entry k clamped to
    the row's positive-mass entries, so every draw is reached."""
    row_ids = np.array(sorted(kernel.rows), dtype=int)
    rows = [kernel.rows[i] for i in row_ids.tolist()]
    n = np.array([len(r.probs) for r in rows], dtype=int)
    width = n.max(initial=1)  # not 0 for a kernel with no rows: argmax needs a column
    real = np.arange(width) < n[:, None]
    # past its end a row repeats its last ID, so every response is real, and
    # that entry's flag, so the pad marks the response as the entry does
    at = (np.cumsum(n) - n)[:, None] + np.minimum(np.arange(width), n[:, None] - 1)
    flat = RowStack.of(rows)
    probs, support = flat.probs[at], flat.ids[at]
    padded = np.where(real, probs, 0.0)
    cum = np.where(real, np.cumsum(padded, axis=1), math.inf).T.copy()
    responses, index = np.unique(support, return_inverse=True)
    index = index.reshape(support.shape)
    reached = np.zeros((len(rows), len(responses)), dtype=bool)
    reached[np.arange(len(rows))[:, None], index] = probs > 0.0
    mass = padded > 0.0
    lo, hi = mass.argmax(axis=1)[:, None], width - 1 - mass[:, ::-1].argmax(axis=1)[:, None]
    pick = np.take_along_axis(index, np.clip(np.arange(width + 1), lo, hi), axis=1).ravel()

    def sample(ids: np.ndarray, keys: np.ndarray, u: np.ndarray, reach: np.ndarray):
        at = np.searchsorted(row_ids, ids)
        absent = (np.searchsorted(row_ids, ids, side="right") == at) & reach.any(axis=0)
        if absent.any():
            kernel.row(int(ids[absent].min()))  # raises, naming the ID
        at = np.minimum(at, len(row_ids) - 1)
        drawn = at[keys]
        picked = drawn * (width + 1)
        for col in cum:
            picked += col[drawn] < u
        return responses, pick[picked], reach @ reached[at]

    return sample


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
    return _route_targets(scenario, lang, via, (prompt,), mc, {})[0]


def _route_targets(scenario: Scenario, lang: int, via: int, prompts: Sequence[int],
                   mc: MonteCarloConfig | None, samplers: dict[int, Callable]) -> list[LogDist]:
    """:func:`round_trip_target` of each prompt, every stage run once for all
    of them.  Each Monte-Carlo target would draw the same block from
    ``default_rng(mc.seed)``, so one is drawn; ``samplers`` holds each
    kernel's :func:`_sampler` by ``id``, made on first use.  Each stage reads
    one contiguous row of the block, broadcast over the prompts."""
    tau_out = scenario.translator(lang, via)
    tau_back = scenario.translator(via, lang)
    pi = scenario.ref[via]
    if mc is None or (tau_out.is_deterministic() and tau_back.is_deterministic()):
        trips, failed = round_trips(tau_out, pi, tau_back, prompts)
        raise_first(failed)
        return trips.dists()

    u = np.random.default_rng(mc.seed).random((mc.samples, 3)).T.copy()
    prompt_of = np.arange(len(prompts))[:, None]
    ids, reach = np.asarray(prompts), np.eye(len(prompts), dtype=bool)
    keys = np.repeat(prompt_of, mc.samples, axis=1)
    for kernel, draws in zip((tau_out, pi, tau_back), u):
        if id(kernel) not in samplers:
            samplers[id(kernel)] = _sampler(kernel)
        ids, keys, reach = samplers[id(kernel)](ids, keys, draws, reach)
    counts = np.bincount((prompt_of * len(ids) + keys).ravel(), minlength=len(prompts) * len(ids))
    with np.errstate(divide="ignore"):
        logp = np.maximum(np.log(counts.reshape(len(prompts), -1) / mc.samples), LOG_EPS)
    return [LogDist.from_logp(ids[r], lp[r]) for r, lp in zip(reach, logp)]


def round_trip_targets(
    scenario: Scenario, mc: MonteCarloConfig | None = None
) -> dict[tuple[int, int, int], LogDist]:
    """Every round-trip target of the scenario, keyed by (lang, via, prompt).

    Each is computed once.  The Monte-Carlo targets of a route share one
    block of uniforms, the block a fresh ``default_rng(mc.seed)`` draws for
    each of them, so the map does not depend on the order they are built in.
    Each kernel is tabulated for sampling once, not once per route."""
    samplers: dict[int, Callable] = {}
    return {(lang, via, p): t for lang in scenario.lang_ids for via in _routes(scenario, lang)
            for p, t in zip(scenario.space(lang).prompts, _route_targets(
                scenario, lang, via, scenario.space(lang).prompts, mc, samplers))}


# ---------------------------------------------------------------------------
# objective


def _floor_zeros(logp: np.ndarray) -> np.ndarray:
    """A copy with only the zero-mass (``-inf``) entries lifted to ``LOG_EPS``."""
    return np.where(logp == -math.inf, LOG_EPS, logp)


def _check_prompt(scenario: Scenario, prompt: int, lang: int) -> None:
    if prompt not in scenario.space(lang).candidates:
        raise ValueError(f"prompt {prompt} is not a prompt of language {lang}")


def _routes(scenario: Scenario, lang: int) -> list[int]:
    return [n for n in scenario.lang_ids if n != lang]


def _aligned(scenario: Scenario, lang: int, prompt: int,
             targets: Mapping[tuple[int, int, int], LogDist]) -> tuple[LogDist, np.ndarray]:
    """The reference row, and each route's log target at its support (``-inf``
    where the target has no entry), one row per route in route order."""
    ref_row = scenario.ref[lang].row(prompt)
    keys = [(lang, via, prompt) for via in _routes(scenario, lang)]
    missing = [key for key in keys if key not in targets]
    if missing:
        raise StructuralError(f"no round-trip target for (lang, via, prompt) {missing[0]}")
    found = [dict(zip(targets[key].support, targets[key].logp.tolist())) for key in keys]
    rows = [[at.get(i, -math.inf) for i in ref_row.support] for at in found]
    return ref_row, np.array(rows).reshape(len(rows), len(ref_row.support))


def n_language_objective(
    theta: StochasticKernel,
    scenario: Scenario,
    prompt: int,
    lang: int,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> PcoValue:
    """One prompt's penalized value: KL to the reference minus one
    strength-weighted expected log round-trip likelihood per other
    language, under a policy row on the reference row's support."""
    _check_prompt(scenario, prompt, lang)
    t_row = theta.row(prompt)
    if t_row.support != scenario.ref[lang].row(prompt).support:
        raise StructuralError(f"language {lang}'s policy row {prompt} is off the reference support")
    values = objective_rows(t_row.probs[None], t_row.logp[None], scenario, prompt, lang, targets)
    return PcoValue(*(float(v[0]) for v in values))


def objective_rows(probs: np.ndarray, logp: np.ndarray, scenario: Scenario, prompt: int, lang: int,
                   targets: Mapping[tuple[int, int, int], LogDist]) -> tuple[np.ndarray, ...]:
    """Fidelity, reward term and total of each row of an (n, C) stack of
    policy rows with logs ``logp``, on the reference row's support and with
    the first row's zero-mass entries; the targets are aligned once for all.
    Each row has the bits of :func:`n_language_objective` on it alone."""
    ref_row, log_t = _aligned(scenario, lang, prompt, targets)
    mask = probs[0] > 0
    # contiguous copies, so each row sums as its own 1-D sum would
    p, lp = (np.ascontiguousarray(a[:, mask]) for a in (probs, logp))
    fidelity = (p * lp).sum(axis=1) - (p * ref_row.logp[mask]).sum(axis=1)
    fidelity = np.where(fidelity > 0.0, fidelity, 0.0)  # max(0.0, x), NaN and -0.0 included
    expected = (p[:, None, :] * np.ascontiguousarray(log_t[:, mask])).sum(axis=2)
    reward = np.zeros(len(p))
    for via, e in zip(_routes(scenario, lang), expected.T):
        reward += scenario.beta(lang, via) * e
    return fidelity, reward, fidelity - reward


def prior_weighted_sum(scenario: Scenario, value: Callable[[int, int], float | np.ndarray]):
    """``value(lang, prompt)`` weighted by each language's prior, over the
    prompts with positive mass, added one prompt at a time in order."""
    total = 0.0
    for lang in scenario.lang_ids:
        prior = scenario.priors[lang]
        for prompt, mass in zip(prior.support, prior.probs):
            if mass > 0.0:
                total += mass * value(lang, prompt)
    return total


def n_language_total(
    theta_by_lang: Mapping[int, StochasticKernel],
    scenario: Scenario,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> float:
    """The full prior-weighted objective over every language."""
    require_kernels(theta_by_lang, scenario.lang_ids)
    return prior_weighted_sum(scenario, lambda lang, prompt: n_language_objective(
        theta_by_lang[lang], scenario, prompt, lang, targets).total)


# ---------------------------------------------------------------------------
# closed-form optimum


@dataclass(frozen=True)
class ClosedFormOptimum:
    """The optimum policy with its per-prompt log-normalizers.

    ``floored`` lists (lang, prompt) rows where a zero-mass round-trip
    target had to be lifted to the floor before tilting; ``targets`` is the
    round-trip target map the reference was tilted by; ``tilt`` is each
    prompt's tilt before normalization, every zero floored (see :meth:`table`).
    """

    policy: Mapping[int, StochasticKernel]
    log_normalizers: Mapping[int, float]
    floored: tuple[tuple[int, int], ...]
    targets: Mapping[tuple[int, int, int], LogDist]
    tilt: Mapping[int, np.ndarray] = field(compare=False)

    def row(self, scenario_lang: int, prompt: int) -> LogDist:
        return self.policy[scenario_lang].row(prompt)

    def table(self) -> LogitTable:
        """The tilt as the direct route's regression targets."""
        return LogitTable({p: row.support for kernel in self.policy.values()
                           for p, row in kernel.rows.items()}, self.tilt)


def _tilt(scenario: Scenario, lang: int, prompt: int,
          targets: Mapping[tuple[int, int, int], LogDist],
          weight: Callable[[int, int], float]) -> tuple[np.ndarray, np.ndarray, bool]:
    """The reference row's log-weights plus ``weight(lang, via)`` times each
    route's log target, zeros floored, added in route order; the entries the
    optimum keeps at ``-inf``; and whether a route needed the floor."""
    ref_row, aligned = _aligned(scenario, lang, prompt, targets)
    tilt, zeros, floored = _floor_zeros(ref_row.logp), ref_row.logp == -math.inf, False
    for via, log_t in zip(_routes(scenario, lang), aligned):
        lost = log_t == -math.inf
        if (lost & (ref_row.probs > 0)).any():
            floored = True
        else:
            zeros |= lost
        tilt += weight(lang, via) * _floor_zeros(log_t)
    return tilt, zeros, floored


def tilted_optimum(
    scenario: Scenario,
    targets: Mapping[tuple[int, int, int], LogDist],
    weight: Callable[[int, int], float],
) -> ClosedFormOptimum:
    """Each reference row tilted by every other language's round-trip
    target raised to ``weight(lang, via)``, normalized per prompt."""
    policy, log_norm, floored, tilts = {}, {}, [], {}
    for lang in scenario.lang_ids:
        rows = {}
        for prompt in scenario.space(lang).prompts:
            tilts[prompt], zeros, used = _tilt(scenario, lang, prompt, targets, weight)
            unnorm = np.where(zeros, -math.inf, tilts[prompt])
            rows[prompt] = LogDist.from_logp(scenario.ref[lang].row(prompt).support, unnorm)
            log_norm[prompt] = logsumexp(unnorm)
            if used:
                floored.append((lang, prompt))
        policy[lang] = StochasticKernel(domain=lang, codomain=lang, rows=rows)
    return ClosedFormOptimum(policy, log_norm, tuple(floored), targets, tilts)


def n_language_optimum(
    scenario: Scenario, mc: MonteCarloConfig | None = None
) -> ClosedFormOptimum:
    """Product-of-powers optimum: the reference row tilted by every other
    language's round-trip target raised to the pairwise strength."""
    return tilted_optimum(scenario, round_trip_targets(scenario, mc), scenario.beta)


def closed_form_optimum(
    scenario: Scenario, mc: MonteCarloConfig | None = None
) -> ClosedFormOptimum:
    """The two-language case of :func:`n_language_optimum`: per prompt, the
    reference row tilted by the round-trip target raised to that
    language's cross weight."""
    if scenario.n_langs != 2:
        raise ValueError("bilingual operation requires exactly two languages; "
                         "use n_language_optimum for more")
    return n_language_optimum(scenario, mc=mc)


# ---------------------------------------------------------------------------
# regression loss


def dco_loss(
    z: LogitTable,
    targets: LogitTable,
    norm: str = "l1",
    weights: Mapping[int, float] | None = None,
) -> float:
    """Regression loss between scores and targets.

    ``weights`` carries the per-prompt prior masses; omitted, every prompt
    counts once.  The loss is not shift invariant; only the induced policy
    is."""
    if norm not in ("l1", "l2"):
        raise ValueError(f"unknown norm {norm!r}")
    if set(z.rows) != set(targets.rows):
        raise StructuralError("score and target tables cover different prompts")
    total = 0.0
    for p in z.rows:
        if z.supports[p] != targets.supports[p]:
            raise StructuralError(f"row {p}: score and target supports differ")
        resid = z.rows[p] - targets.rows[p]
        per = np.abs(resid).sum() if norm == "l1" else (resid ** 2).sum()
        total += (1.0 if weights is None else weights.get(p, 0.0)) * float(per)
    return total


def prior_weights(scenario: Scenario) -> dict[int, float]:
    return {prompt: float(mass) for lang in scenario.lang_ids
            for prompt, mass in zip(scenario.priors[lang].support, scenario.priors[lang].probs)}
