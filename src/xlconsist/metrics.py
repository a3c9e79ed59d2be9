"""Consistency checking and evaluation metrics.

The central check compares a model's direct response distribution against
its round trip through another language, re-tempered by the best
temperature found: an existential over temperatures becomes a 1-D
minimization over a log-spaced grid refined by golden-section search.
Both directions of a prompt pair must pass for the pair to count as
consistent.  The round trips of each ordered language pair come from one
route-level pass (``core.round_trips``) as a stack of arrays, and one
search serves every direction of an evaluation, in lockstep on those
arrays; each direction takes the steps it would take alone, so it gets the
same bits.  A fixed-temperature mode bypasses the search so closed-form
predictions can be tested at their exact exponents.

RankC compares candidate *rankings* across two languages: top-j overlap
weighted by exponentially decaying weights, so agreement among the most
likely candidates dominates.  It is insensitive to annealing either side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from xlconsist.core import (
    DivergenceSpec,
    LogDist,
    RowStack,
    StochasticKernel,
    StructuralError,
    _rows_for,
    anneal,
    anneal_rows,
    entropy,
    f_divergence_rows,
    raise_first,
    require_kernels,
    round_trips,
)
from xlconsist.scenario import Scenario

DEFAULT_T_GRID = np.geomspace(1e-3, 1e3, 61)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

_LOCKSTEP_DIRECTIONS = 512  # at most, so the grid step's arrays stay small


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the two-directional consistency check for one prompt pair."""

    lang_pair: tuple[int, int]
    prompt_pair: tuple[int, int]
    divergence_at_best_T: float
    best_T1: float
    best_T2: float
    divergence_1: float
    divergence_2: float
    epsilon: float
    satisfied: bool
    support_extended: bool = False

    def __post_init__(self):
        if self.satisfied != (self.divergence_at_best_T <= self.epsilon):
            raise ValueError("satisfied flag contradicts the recorded divergence")


def _golden_section(grid: np.ndarray, fixed_t: float | None):
    """One direction's search as a generator: it yields the temperatures it
    needs, is sent their divergences and returns ``(smallest divergence,
    its temperature)``.  The grid goes in one request; golden-section search
    on log-temperature then refines around its argmin to width 1e-6."""
    if fixed_t is not None:
        (val,) = yield (fixed_t,)
        return val, fixed_t
    if grid.size == 0:
        raise ValueError("temperature grid is empty")
    values = yield grid
    k = int(np.argmin(values))
    best_val, best_t = values[k], float(grid[k])
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])
    if hi - lo > 0:
        a, b = lo, hi
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        fc, fd = yield (math.exp(c), math.exp(d))
        while b - a > 1e-6:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _INV_PHI * (b - a)
                (fc,) = yield (math.exp(c),)
            else:
                a, c, fc = c, d, fd
                d = a + _INV_PHI * (b - a)
                (fd,) = yield (math.exp(d),)
            for x, fx in ((c, fc), (d, fd)):
                if fx < best_val:
                    best_val, best_t = fx, math.exp(x)
    return best_val, best_t


def _search(direct: RowStack, trip: RowStack, spec, t_grid,
            fixed_ts: list) -> list[tuple[float, float, bool]]:
    """``(divergence, temperature, support extended)`` of each direction i:
    the divergence of row i of ``direct`` from row i of ``trip`` annealed,
    minimized over temperature unless ``fixed_ts[i]`` fixes it.  Where the two
    supports differ, both rows go onto their union as :func:`core.embed`
    puts them, with log-probabilities taken anew from the probabilities."""
    grid, n = np.asarray(t_grid, dtype=float), len(fixed_ts)
    row, ids = np.concatenate([direct.row, trip.row]), np.concatenate([direct.ids, trip.ids])
    order = np.lexsort((ids, row))
    new = np.concatenate(([True], (np.diff(row[order]) != 0) | (np.diff(ids[order]) != 0)))
    slot = np.empty_like(order)
    slot[order] = np.cumsum(new) - 1  # each entry's place in its direction's union
    width = np.bincount(row[order][new], minlength=n)
    extended = ((width != np.bincount(direct.row, minlength=n))
                | (width != np.bincount(trip.row, minlength=n)))
    redo = np.repeat(extended, width)
    sides = []
    for side, at in ((direct, slot[:len(direct.row)]), (trip, slot[len(direct.row):])):
        probs, logp = np.zeros(len(redo)), np.full(len(redo), -math.inf)
        probs[at], logp[at] = side.probs, side.logp
        with np.errstate(divide="ignore"):
            logp[redo] = np.log(probs[redo])
        sides += [probs, logp]
    start, block = np.cumsum(width) - width, np.arange(n) // _LOCKSTEP_DIRECTIONS
    found: list = [None] * n
    for k, b in dict.fromkeys(zip(width.tolist(), block.tolist())):
        group = np.flatnonzero((width == k) & (block == b)).tolist()
        at = start[group][:, None] + np.arange(k)
        searches = [_golden_section(grid, fixed_ts[i]) for i in group]
        for i, result in zip(group, _lockstep([a[at] for a in sides], searches, spec)):
            found[i] = (*result, bool(extended[i]))
    return found


def _lockstep(sides: list, searches: list, spec: DivergenceSpec) -> list[tuple[float, float]]:
    """Run the searches of directions over supports of one length together,
    annealing all pending temperatures in one array.  ``sides`` holds the
    (n, k) probabilities and log-probabilities of the direct rows, then of
    the trips."""
    direct_p, direct_logp, trip_p, trip_logp = sides
    results: list = [None] * len(searches)
    pending = {i: next(g) for i, g in enumerate(searches)}
    while pending:
        rows = np.repeat(list(pending), [len(req) for req in pending.values()])
        temps = np.concatenate([np.asarray(req, dtype=float) for req in pending.values()])
        q_logp, q_probs = trip_logp[rows], trip_p[rows]
        hot = temps != 1.0  # anneal returns its input unchanged at T = 1
        if hot.any():
            q_logp[hot], q_probs[hot] = anneal_rows(q_logp[hot], temps[hot])
        values = f_divergence_rows(spec.kind, direct_p[rows], direct_logp[rows],
                                   q_probs, q_logp).tolist()
        asked, pending, start = pending, {}, 0
        for i, req in asked.items():
            answer, start = values[start:start + len(req)], start + len(req)
            try:
                pending[i] = searches[i].send(answer)
            except StopIteration as done:
                results[i] = done.value
    return results


def check_pairs(pi, translators, pairs, spec, eps, t_grid, fixed=None,
                fixed_direct=None) -> list[ConsistencyReport]:
    """Consistency reports of ``(lang_pair, prompt_pair)`` items, in order,
    from one lockstep search over both directions of every item.  Given,
    ``fixed(a, b)`` replaces the search of direction a -> b by one round-trip
    temperature, and ``fixed_direct(a, b)`` anneals its direct row first.
    The trips of each ordered language pair are built in one pass.  A missing
    language raises first, naming the smallest, then a missing translator,
    naming the first pair in route order, then a missing row, as the first
    failing direction, taken in order, would."""
    if not pairs:
        return []
    require_kernels(pi, (m for lang_pair, _ in pairs for m in lang_pair))
    routes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, ((m, n), (x_m, x_n)) in enumerate(pairs):  # directions 2j and 2j + 1
        routes.setdefault((m, n), []).append((2 * j, x_m))
        routes.setdefault((n, m), []).append((2 * j + 1, x_n))
    for a, b in routes:
        if (a, b) not in translators:
            raise StructuralError(f"no translator {a}->{b}")
    order, directs, trips, fixed_ts, failed = [], [], [], [], {}
    for (a, b), items in routes.items():
        index, prompts = zip(*items)
        stack, lost = round_trips(translators[(a, b)], pi[b], translators[(b, a)], prompts)
        failed.update((index[k], msg) for k, msg in lost.items())
        directs += [d if fixed_direct is None else anneal(d, fixed_direct(a, b))
                    for d in _rows_for(pi[a], prompts, index, failed) if d is not None]
        trips.append(stack._replace(row=stack.row + len(order)))
        order += index
        fixed_ts += [None if fixed is None else fixed(a, b)] * len(items)
    raise_first(failed)
    found = dict(zip(order, _search(RowStack.of(directs), RowStack(*map(np.concatenate, zip(*trips))),
                                    spec, t_grid, fixed_ts)))
    reports = []
    for j, (lang_pair, prompt_pair) in enumerate(pairs):
        (d1, t1, ext1), (d2, t2, ext2) = found[2 * j], found[2 * j + 1]
        worst = max(d1, d2)
        reports.append(ConsistencyReport(lang_pair, prompt_pair, worst, t1, t2, d1, d2, eps,
                                         worst <= eps, ext1 or ext2))
    return reports


def check_consistency(
    pi: Mapping[int, StochasticKernel],
    translators: Mapping[tuple[int, int], StochasticKernel],
    lang_pair: tuple[int, int],
    prompt_pair: tuple[int, int],
    spec: DivergenceSpec = DivergenceSpec("forward-kl"),
    eps: float = 1e-9,
    t_grid: np.ndarray = DEFAULT_T_GRID,
    fixed_temperatures: tuple[float, float] | None = None,
) -> ConsistencyReport:
    """Check both directions of one aligned prompt pair.

    When the round trip reaches candidates outside the direct support
    (leaky translators), both sides are embedded onto the support union
    explicitly and the report says so.
    """
    fixed = (lambda a, b: fixed_temperatures[a != lang_pair[0]]) if fixed_temperatures else None
    return check_pairs(pi, translators, [(lang_pair, prompt_pair)], spec, eps, t_grid, fixed)[0]


# ---------------------------------------------------------------------------
# ranking agreement


def rankc(d1: LogDist, d2: LogDist, candidate_map: Mapping[int, int]) -> float:
    """Exponentially weighted top-j ranking overlap between two rows.

    ``candidate_map`` must biject d1's support onto d2's.  Sorting is by
    descending probability with ties broken by ascending candidate ID.
    Weights are normalized at the end, so full agreement scores exactly 1.
    """
    if set(candidate_map.keys()) != set(d1.support):
        raise StructuralError("candidate map does not cover the first support")
    mapped = [candidate_map[i] for i in d1.support]
    if len(set(mapped)) != len(mapped) or set(mapped) != set(d2.support):
        raise StructuralError("candidate map is not a bijection onto the second support")
    m = len(d1.support)
    rank1 = [candidate_map[i] for i in d1.ranking()]
    rank2 = list(d2.ranking())
    top1: set[int] = set()
    top2: set[int] = set()
    num = 0.0
    den = 0.0
    for j in range(1, m + 1):
        top1.add(rank1[j - 1])
        top2.add(rank2[j - 1])
        w = math.exp(-j)
        num += w * (len(top1 & top2) / j)
        den += w
    return num / den


@dataclass(frozen=True)
class RankCReport:
    """Per-pair ranking agreement with its aggregate means.

    ``per_prompt`` holds one value per aligned prompt group, keyed by the
    ordered-as-listed language pair; ``clc`` is the per-pair mean and
    ``clc_all`` the mean over all unordered pairs.
    """

    per_prompt: Mapping[tuple[int, int], tuple[float, ...]]
    clc: Mapping[tuple[int, int], float]
    clc_all: float

    def __post_init__(self):
        for vals in self.per_prompt.values():
            for v in vals:
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"ranking agreement {v} outside [0, 1]")


def rankc_report(
    scenario: Scenario, policy: Mapping[int, StochasticKernel]
) -> RankCReport:
    per_prompt: dict[tuple[int, int], tuple[float, ...]] = {}
    clc: dict[tuple[int, int], float] = {}
    for a, b in combinations(scenario.lang_ids, 2):
        vals = []
        for g, pt in enumerate(scenario.alignment.prompt_tuples):
            cmap = {c[a]: c[b] for c in scenario.alignment.candidate_tuples[g]}
            vals.append(rankc(policy[a].row(pt[a]), policy[b].row(pt[b]), cmap))
        per_prompt[(a, b)] = tuple(vals)
        clc[(a, b)] = float(np.mean(vals))
    clc_all = float(np.mean(list(clc.values()))) if clc else 1.0
    return RankCReport(per_prompt, clc, clc_all)


# ---------------------------------------------------------------------------
# accuracy-style statistics


def accuracy(pi: StochasticKernel, gold: Mapping[int, int]) -> float:
    """Fraction of prompts whose argmax (lowest ID on ties) hits the gold."""
    hits = 0
    prompts = sorted(pi.rows)
    for p in prompts:
        if p not in gold:
            raise StructuralError(f"no gold entry for prompt {p}")
        hits += int(pi.row(p).argmax() == gold[p])
    return hits / len(prompts)


def jaccard_correct_overlap(
    pi1: StochasticKernel,
    pi2: StochasticKernel,
    gold1: Mapping[int, int],
    gold2: Mapping[int, int],
    prompt_map: Mapping[int, int],
) -> float:
    """Jaccard similarity of the correctly-answered aligned prompt sets."""
    c1 = {p for p in prompt_map if pi1.row(p).argmax() == gold1[p]}
    c2 = {p for p in prompt_map if pi2.row(prompt_map[p]).argmax() == gold2[prompt_map[p]]}
    union = c1 | c2
    if not union:
        return 1.0
    return len(c1 & c2) / len(union)


def changed_fraction(before: StochasticKernel, after: StochasticKernel) -> float:
    """Fraction of prompts whose argmax differs between the two models."""
    prompts = sorted(before.rows)
    changed = sum(int(before.row(p).argmax() != after.row(p).argmax()) for p in prompts)
    return changed / len(prompts)


@dataclass(frozen=True)
class PartitionStats:
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class EntropyStats:
    correct: PartitionStats | None
    incorrect: PartitionStats | None


def entropy_stats(pi: StochasticKernel, gold: Mapping[int, int]) -> EntropyStats:
    """Response-entropy summary split by argmax correctness.

    Empty partitions are reported as absent rather than as NaN statistics.
    """
    buckets: dict[bool, list[float]] = {True: [], False: []}
    for p in sorted(pi.rows):
        if p not in gold:
            raise StructuralError(f"no gold entry for prompt {p}")
        row = pi.row(p)
        buckets[row.argmax() == gold[p]].append(entropy(row))

    def stats(vals: list[float]) -> PartitionStats | None:
        if not vals:
            return None
        arr = np.asarray(vals)
        return PartitionStats(float(arr.mean()), float(arr.std()), len(vals))

    return EntropyStats(correct=stats(buckets[True]), incorrect=stats(buckets[False]))


# ---------------------------------------------------------------------------
# full evaluation bundle


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluator reports for one policy on one scenario."""

    policy_label: str
    seed: int
    rankc: RankCReport
    accuracy: Mapping[int, float]
    entropy: Mapping[int, EntropyStats]
    changed: Mapping[int, float]
    consistency: tuple[ConsistencyReport, ...]

    def to_json_dict(self) -> dict:
        def part(s: PartitionStats | None):
            return None if s is None else {"mean": s.mean, "std": s.std, "count": s.count}

        return {
            "version": "1",
            "policy": self.policy_label,
            "seed": self.seed,
            "rankc": {
                "pairs": [
                    {
                        "langs": list(pair),
                        "per_prompt": list(self.rankc.per_prompt[pair]),
                        "clc": self.rankc.clc[pair],
                    }
                    for pair in sorted(self.rankc.clc)
                ],
                "clc_all": self.rankc.clc_all,
            },
            "accuracy": {str(k): v for k, v in sorted(self.accuracy.items())},
            "entropy": {
                str(k): {"correct": part(v.correct), "incorrect": part(v.incorrect)}
                for k, v in sorted(self.entropy.items())
            },
            "changed_fraction": {str(k): v for k, v in sorted(self.changed.items())},
            "consistency": [
                {
                    "langs": list(r.lang_pair),
                    "prompts": list(r.prompt_pair),
                    "divergence": r.divergence_at_best_T,
                    "best_T1": r.best_T1,
                    "best_T2": r.best_T2,
                    "epsilon": r.epsilon,
                    "satisfied": r.satisfied,
                    "support_extended": r.support_extended,
                }
                for r in self.consistency
            ],
        }

    def to_csv_rows(self) -> list[dict]:
        rows = []

        def add(metric, scope, prompt, value):
            rows.append({
                "metric": metric, "scope": scope, "prompt": prompt,
                "value": value, "policy": self.policy_label, "seed": self.seed,
            })

        for pair in sorted(self.rankc.clc):
            scope = f"{pair[0]}-{pair[1]}"
            for g, v in enumerate(self.rankc.per_prompt[pair]):
                add("rankc", scope, g, v)
            add("clc", scope, "", self.rankc.clc[pair])
        add("clc_all", "all", "", self.rankc.clc_all)
        for lang, v in sorted(self.accuracy.items()):
            add("accuracy", lang, "", v)
        for lang, v in sorted(self.changed.items()):
            add("changed_fraction", lang, "", v)
        for lang, es in sorted(self.entropy.items()):
            for name, s in (("correct", es.correct), ("incorrect", es.incorrect)):
                if s is not None:
                    add(f"entropy_{name}_mean", lang, "", s.mean)
                    add(f"entropy_{name}_std", lang, "", s.std)
        for r in self.consistency:
            scope = f"{r.lang_pair[0]}-{r.lang_pair[1]}"
            add("consistency_divergence", scope, f"{r.prompt_pair[0]}/{r.prompt_pair[1]}",
                r.divergence_at_best_T)
        return rows


def evaluate_policy(
    scenario: Scenario,
    policy: Mapping[int, StochasticKernel],
    policy_label: str,
    spec: DivergenceSpec = DivergenceSpec("forward-kl"),
    eps: float = 1e-9,
) -> MetricsReport:
    """Run the full metric bundle for one policy.

    Accuracy-style metrics use the scenario's gold convention (the first
    candidate of each aligned tuple); the changed fraction compares the
    policy against the scenario's reference model.
    """
    require_kernels(policy, scenario.lang_ids)
    acc, ent, chg = {}, {}, {}
    for lang in scenario.lang_ids:
        gold = scenario.gold_map(lang)
        acc[lang] = accuracy(policy[lang], gold)
        ent[lang] = entropy_stats(policy[lang], gold)
        chg[lang] = changed_fraction(scenario.ref[lang], policy[lang])

    pairs = [((a, b), (pt[a], pt[b])) for a, b in combinations(scenario.lang_ids, 2)
             for pt in scenario.alignment.prompt_tuples]
    reports = check_pairs(policy, scenario.translators, pairs, spec, eps, DEFAULT_T_GRID)

    return MetricsReport(
        policy_label=policy_label,
        seed=scenario.seed,
        rankc=rankc_report(scenario, policy),
        accuracy=acc,
        entropy=ent,
        changed=chg,
        consistency=tuple(reports),
    )
