"""Consistency objectives and their closed-form optima.

The penalized objective is a fidelity KL to the reference minus a
strength-weighted expected log-likelihood of the round-trip target through
each other language, summed under the prompt priors.  ``round_trip_targets``
builds those targets once, exact or Monte-Carlo; the optimum carries the
map, and every other consumer takes it as an argument.

One tilt, computed in log space, serves both routes to the optimum: the
reference row's log-weights plus each other language's log round-trip
target times the pairwise strength.  Normalized per prompt, it is the
closed-form optimum; as it is, it holds the direct route's regression
targets, whose softmax is therefore the optimum by construction (up to the
floor below), so matching unnormalized scores to them (any norm) recovers
it without estimating a normalizer.

Zero masses would drive the tilt to minus infinity, so they are lifted to
``LOG_EPS``.  The optimum keeps the reference's zeros, and those of each
target with no zero at positive reference mass; a row where a target has
one needed the floor and is flagged.  The two-weight bilingual formula
lives on in the tests as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from xlconsist.core import (
    LOG_EPS,
    LogDist,
    StochasticKernel,
    StructuralError,
    logsumexp,
    raise_first,
    round_trips,
)
from xlconsist.scenario import Scenario


@dataclass(frozen=True)
class MonteCarloConfig:
    """Sampling budget for estimated round trips."""

    samples: int
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")


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
    ``ids[key]``, all keys at once.  It returns the sorted response IDs, one
    index into them per key, and the responses each prompt reaches.
    ``reach[i, j]`` says prompt ``i`` reaches ``ids[j]`` with positive mass; a
    reached ID without a row raises, naming the smallest.  Column j of the
    ``+inf``-padded table is the cumulative sum of row j, so counting its
    entries below a draw is ``searchsorted(side="left")``.  Picks are clamped
    to the row's positive-mass entries, so every draw is reached."""
    row_ids = np.array(sorted(kernel.rows))
    rows = [kernel.rows[i] for i in row_ids.tolist()]
    cum = np.full((max((len(r.probs) for r in rows), default=0), len(rows)), math.inf)
    support, bounds = np.empty(cum.T.shape, dtype=int), np.empty((2, len(rows)), dtype=int)
    live = np.empty(cum.T.shape, dtype=bool)
    for j, r in enumerate(rows):
        cum[: len(r.probs), j] = np.cumsum(r.probs)
        # pad with a real ID, so every response is real, and with its flag,
        # so the pad marks that response as the entry it repeats does
        support[j], live[j] = r.support[-1], r.probs[-1] > 0.0
        support[j, : len(r.probs)] = r.support
        live[j, : len(r.probs)] = r.probs > 0.0
        bounds[:, j] = np.flatnonzero(r.probs)[[0, -1]]
    responses, index = np.unique(support, return_inverse=True)
    index = index.reshape(support.shape)
    reached = np.zeros((len(rows), len(responses)), dtype=bool)
    reached[np.arange(len(rows))[:, None], index] = live

    def sample(ids: np.ndarray, keys: np.ndarray, u: np.ndarray, reach: np.ndarray):
        at = np.minimum(np.searchsorted(row_ids, ids), len(row_ids) - 1)
        absent = (row_ids[at] != ids) & reach.any(axis=0)
        if absent.any():
            kernel.row(int(ids[absent].min()))  # raises, naming the ID
        drawn = at[keys]
        picked = np.zeros(len(keys), dtype=int)
        for col in cum:
            picked += col[drawn] < u
        return responses, index[drawn, np.clip(picked, *bounds[:, drawn])], reach @ reached[at]

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
    kernel's :func:`_sampler` by ``id``, made on first use."""
    tau_out = scenario.translator(lang, via)
    tau_back = scenario.translator(via, lang)
    pi = scenario.ref[via]
    if mc is None or (tau_out.is_deterministic() and tau_back.is_deterministic()):
        trips, failed = round_trips(tau_out, pi, tau_back, prompts)
        raise_first(failed)
        return trips.dists()

    u = np.tile(np.random.default_rng(mc.seed).random((mc.samples, 3)), (len(prompts), 1))
    prompt_of = np.repeat(np.arange(len(prompts)), mc.samples)
    ids, keys, reach = np.asarray(prompts), prompt_of, np.eye(len(prompts), dtype=bool)
    for kernel, draws in zip((tau_out, pi, tau_back), u.T):
        if id(kernel) not in samplers:
            samplers[id(kernel)] = _sampler(kernel)
        ids, keys, reach = samplers[id(kernel)](ids, keys, draws, reach)
    counts = np.bincount(prompt_of * len(ids) + keys, minlength=len(prompts) * len(ids))
    return [LogDist.from_probs(ids[r], c[r] / mc.samples).floored()
            for r, c in zip(reach, counts.reshape(len(prompts), -1))]


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


def _logp_at(d: LogDist, ids: Sequence[int]) -> np.ndarray:
    """``d.logp`` at each of ``ids``, ``-inf`` where ``d`` has no entry."""
    at = dict(zip(d.support, d.logp.tolist()))
    return np.array([at.get(i, -math.inf) for i in ids])


def _floor_zeros(logp: np.ndarray) -> np.ndarray:
    """A copy with only the zero-mass (``-inf``) entries lifted to ``LOG_EPS``."""
    return np.where(logp == -math.inf, LOG_EPS, logp)


def _check_prompt(scenario: Scenario, prompt: int, lang: int) -> None:
    if prompt not in scenario.space(lang).candidates:
        raise ValueError(f"prompt {prompt} is not a prompt of language {lang}")


def _routes(scenario: Scenario, lang: int) -> list[int]:
    return [n for n in scenario.lang_ids if n != lang]


def _expectation_terms(theta_row: LogDist, logp_other: np.ndarray) -> float:
    """Sum of theta * logp_other with the 0*log convention; +-inf propagated."""
    mask = theta_row.probs > 0
    vals = logp_other[mask]
    if np.any(vals == -math.inf):
        return -math.inf
    return float(np.sum(theta_row.probs[mask] * vals))


def n_language_objective(
    theta: StochasticKernel,
    scenario: Scenario,
    prompt: int,
    lang: int,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> PcoValue:
    """One prompt's penalized value: KL to the reference minus one
    strength-weighted expected log round-trip likelihood per other
    language, all under the candidate policy."""
    _check_prompt(scenario, prompt, lang)
    t_row = theta.row(prompt)
    ref_row = scenario.ref[lang].row(prompt)
    log_ref = _logp_at(ref_row, t_row.support)
    fid = _expectation_terms(t_row, log_ref)
    mask = t_row.probs > 0
    fidelity = math.inf if fid == -math.inf else max(
        0.0, float(np.sum(t_row.probs[mask] * t_row.logp[mask])) - fid
    )
    reward = 0.0
    for via in _routes(scenario, lang):
        e = _expectation_terms(t_row, _logp_at(targets[(lang, via, prompt)], t_row.support))
        if e == -math.inf:
            reward = -math.inf
            break
        reward += scenario.beta(lang, via) * e
    total = math.inf if (fidelity == math.inf or reward == -math.inf) else fidelity - reward
    return PcoValue(fidelity=fidelity, reward_term=reward, total=total)


def n_language_total(
    theta_by_lang: Mapping[int, StochasticKernel],
    scenario: Scenario,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> float:
    """The full prior-weighted objective over every language."""
    total = 0.0
    for lang in scenario.lang_ids:
        prior = scenario.priors[lang]
        for prompt, mass in zip(prior.support, prior.probs):
            if mass == 0.0:
                continue
            val = n_language_objective(theta_by_lang[lang], scenario, prompt, lang, targets)
            total += mass * val.total
    return total


# ---------------------------------------------------------------------------
# closed-form optimum


@dataclass(frozen=True)
class ClosedFormOptimum:
    """The optimum policy with its per-prompt log-normalizers.

    ``floored`` lists (lang, prompt) rows where a zero-mass round-trip
    target had to be lifted to the floor before tilting; ``targets`` is the
    round-trip target map the reference was tilted by.
    """

    policy: Mapping[int, StochasticKernel]
    log_normalizers: Mapping[int, float]
    floored: tuple[tuple[int, int], ...]
    targets: Mapping[tuple[int, int, int], LogDist]

    def row(self, scenario_lang: int, prompt: int) -> LogDist:
        return self.policy[scenario_lang].row(prompt)


def _tilt(scenario: Scenario, lang: int, prompt: int,
          targets: Mapping[tuple[int, int, int], LogDist],
          weight: Callable[[int, int], float]) -> tuple[np.ndarray, np.ndarray, bool]:
    """The reference row's log-weights plus ``weight(lang, via)`` times each
    route's log target, zeros floored, added in route order; the entries the
    optimum keeps at ``-inf``; and whether a route needed the floor."""
    ref_row = scenario.ref[lang].row(prompt)
    tilt, zeros, floored = _floor_zeros(ref_row.logp), ref_row.logp == -math.inf, False
    for via in _routes(scenario, lang):
        log_t = _logp_at(targets[(lang, via, prompt)], ref_row.support)
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
    policy, log_norm, floored = {}, {}, []
    for lang in scenario.lang_ids:
        rows = {}
        for prompt in scenario.space(lang).prompts:
            unnorm, zeros, used = _tilt(scenario, lang, prompt, targets, weight)
            unnorm[zeros] = -math.inf
            rows[prompt] = LogDist.from_logp(scenario.ref[lang].row(prompt).support, unnorm)
            log_norm[prompt] = logsumexp(unnorm)
            if used:
                floored.append((lang, prompt))
        policy[lang] = StochasticKernel(domain=lang, codomain=lang, rows=rows)
    return ClosedFormOptimum(policy, log_norm, tuple(floored), targets)


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
# regression targets


def n_language_log_targets(
    scenario: Scenario,
    prompt: int,
    lang: int,
    targets: Mapping[tuple[int, int, int], LogDist],
) -> np.ndarray:
    """Per-candidate regression targets: log reference plus, for every other
    language, the strength times the log round-trip target, with zero
    masses floored, aligned with the reference row's support order: the tilt
    that :func:`tilted_optimum` normalizes."""
    _check_prompt(scenario, prompt, lang)
    return _tilt(scenario, lang, prompt, targets, scenario.beta)[0]


def target_table(
    scenario: Scenario, targets: Mapping[tuple[int, int, int], LogDist]
) -> LogitTable:
    """Regression targets for every prompt of every language."""
    supports, rows = {}, {}
    for lang in scenario.lang_ids:
        for prompt in scenario.space(lang).prompts:
            supports[prompt] = scenario.ref[lang].row(prompt).support
            rows[prompt] = n_language_log_targets(scenario, prompt, lang, targets)
    return LogitTable(supports, rows)


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
    w = {}
    for lang in scenario.lang_ids:
        prior = scenario.priors[lang]
        for prompt, mass in zip(prior.support, prior.probs):
            w[prompt] = float(mass)
    return w
