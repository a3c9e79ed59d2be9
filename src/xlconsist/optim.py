"""Fitting a tabular policy to the consistency optimum, two ways.

The off-policy route regresses per-candidate scores onto fixed targets by
subgradient descent on the L1 loss with a backtracking step (halve and
revert on any loss increase).  It touches no samples at all: its trace
records exactly zero roll-outs, which is the whole point of having the
regression form.

The on-policy route optimizes the penalized objective directly with a
score-function estimator: roll-outs from the current policy, reward equal
to the regression target minus the current log-probability, and the
roll-out batch's mean reward as baseline.  Both routes share the same
target table and must agree at convergence.

Progress is measured in policy space (total-variation between consecutive
policies, and against the closed form), not in raw loss, because the loss
is sensitive to per-prompt shifts the induced policy ignores.

Both fitters keep their scores stacked, one (n, C) array per support
length C, and sum per-prompt values in ascending ID by one ``cumsum`` after a
leading 0.0, one at a time, so every bit is that of one-row arithmetic.  The
on-policy step resolves each slot's prompt first, then updates in waves:
wave k holds the k-th draw of each prompt, so repeats stay sequential and
distinct prompts update together.  Wave 0 of each length group reads its
rows from the softmax that ended the last iteration, untouched since.  A
step to non-finite scores returns the last finite ones with a diagnostic.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from xlconsist.core import StochasticKernel, check_normalized, logsumexp_rows, require_int
from xlconsist.objectives import (
    LogitTable,
    dco_loss,
    initial_logits,
    n_language_optimum,
    policy_kernels,
    prior_weights,
)
from xlconsist.scenario import Scenario

_STEP_FLOOR = 1e-18
_DIVERGENCE_PATIENCE = 50

METHOD_DCO = "dco-subgradient"
METHOD_REINFORCE = "pco-reinforce"


@dataclass(frozen=True)
class OptimizerConfig:
    method: str
    step_size: float = 0.5
    max_iters: int = 10_000
    batch: int = 8  # prompts per step, on-policy only
    rollouts: int = 256  # samples per prompt per step, on-policy only
    tol: float = 1e-9  # max-row TV between consecutive policies
    norm: str = "l1"
    seed: int = 0

    def __post_init__(self):
        if self.method not in (METHOD_DCO, METHOD_REINFORCE):
            raise ValueError(f"unknown method {self.method!r}")
        if not (self.step_size > 0):
            raise ValueError("step_size must be positive")
        for name in ("max_iters", "batch", "rollouts"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.norm not in ("l1", "l2"):
            raise ValueError(f"unknown norm {self.norm!r}")


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    loss: float
    tv_to_optimum: float
    samples: int  # cumulative roll-out samples consumed so far
    millis: float


@dataclass(frozen=True)
class TrainTrace:
    rows: tuple[TraceRow, ...]
    converged: bool
    diagnostic: str = ""

    @property
    def total_samples(self) -> int:
        return self.rows[-1].samples if self.rows else 0

    @property
    def final_tv(self) -> float:
        return self.rows[-1].tv_to_optimum if self.rows else math.inf

    def csv_rows(self) -> list[dict]:
        return [asdict(r) for r in self.rows]


def _start(scenario: Scenario):
    """What both fitters start from: the prompts of each support length in
    ascending ID, per length the stacked reference scores, regression targets
    and closed-form probabilities, then the prior weights and the supports."""
    optimum = n_language_optimum(scenario)
    opt_probs = {p: row.probs for kern in optimum.policy.values() for p, row in kern.rows.items()}
    init = initial_logits(scenario)
    order = init.prompts()
    lengths = sorted({len(init.supports[p]) for p in order})
    groups = [[p for p in order if len(init.supports[p]) == c] for c in lengths]
    z, t, o = ([np.array([rows[p] for p in g]) for g in groups]
               for rows in (init.rows, optimum.table().rows, opt_probs))
    return groups, z, t, o, prior_weights(scenario), init.supports


def _softmax(zs: list[np.ndarray]) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """(logp, probs) stacks of finite scores, with the bits of ``LogDist.from_logp``."""
    return tuple(zip(*(check_normalized(z - logsumexp_rows(z)[:, None]) for z in zs)))


def _max_tv(ps, qs) -> float:
    """Largest row total variation between probability stacks; ``cumsum``
    adds each row's terms one at a time, as ``total_variation`` does."""
    return max(float(0.5 * np.abs(p - q).cumsum(axis=1)[:, -1].max()) for p, q in zip(ps, qs))


def _in_order(groups, weight):
    """Sums of ``weight(p)`` times each row's value, one prompt at a time in
    ascending ID: ``cumsum`` adds in sequence, its leading 0.0 as ``0.0 + x``."""
    ids = [p for g in groups for p in g]
    order = np.concatenate(([0], 1 + np.argsort(ids)))
    w = np.array([1.0] + [weight(p) for p in sorted(ids)])
    return lambda per_row: float(np.cumsum(w * np.concatenate((np.zeros(1), *per_row))[order])[-1])


def _table(supports, groups, zs: list[np.ndarray]) -> LogitTable:
    """The stacks as a table; ``LogitTable`` names the first non-finite row."""
    return LogitTable(supports, dict(sorted(
        (p, row) for g, z in zip(groups, zs) for p, row in zip(g, z))))


def fit_dco(scenario: Scenario, config: OptimizerConfig) -> tuple[LogitTable, TrainTrace]:
    """Subgradient descent of the regression loss from the reference scores.

    Consumes no roll-outs.  A proposed step that raises the loss is
    reverted and the step size halved, so accepted losses never increase;
    fifty consecutive unproductive proposals count as failure.
    """
    if config.method != METHOD_DCO:
        raise ValueError(f"fit_dco requires method {METHOD_DCO!r}")
    groups, z, targets, opt, weights, supports = _start(scenario)
    step_weights = [np.array([weights[p] for p in g])[:, None] for g in groups]
    total = _in_order(groups, lambda p: weights.get(p, 0.0))

    def loss_of(zs: list[np.ndarray]) -> float:
        resid = [row - t for row, t in zip(zs, targets)]
        # an overflow is an infinite loss, named below (NaN at a zero weight)
        with np.errstate(over="ignore", invalid="ignore"):
            return total([np.abs(r).sum(axis=1) if config.norm == "l1" else (r ** 2).sum(axis=1)
                          for r in resid])

    loss = loss_of(z)
    _, policy = _softmax(z)
    tv_opt = _max_tv(policy, opt)
    step = config.step_size
    stalls = overflows = 0
    trace: list[TraceRow] = []
    converged = False
    diagnostic = ""
    started = time.perf_counter()

    if loss == 0.0:
        # already at the targets: nothing to iterate
        return _table(supports, groups, z), TrainTrace((TraceRow(0, loss, tv_opt, 0, 0.0),), True)

    for it in range(1, config.max_iters + 1):
        proposal = []
        pure_shift = True
        for row, t, w in zip(z, targets, step_weights):
            resid = row - t
            if config.norm == "l1":
                # clip each coordinate at its kink: the L1 loss is exactly
                # minimized along the coordinate there, and overshooting
                # would only oscillate
                move = np.sign(resid) * np.minimum(step * w, np.abs(resid))
            else:
                move = step * w * 2.0 * resid
            pure_shift = pure_shift and not (np.ptp(move, axis=1) > 1e-15).any()
            proposal.append(row - move)
        if not all(np.isfinite(row).all() for row in proposal):
            _table(supports, groups, proposal)
        new_loss = loss_of(proposal)
        accepted = new_loss <= loss
        if accepted:
            z = proposal
            _, new_policy = _softmax(z)
            moved = _max_tv(new_policy, policy)
            policy = new_policy
            tv_opt = _max_tv(policy, opt)
            loss = new_loss
            stalls = overflows = 0
        else:
            step *= 0.5
            stalls += 1
            overflows = 0 if math.isfinite(new_loss) else overflows + 1
            moved = None

        trace.append(TraceRow(it, loss, tv_opt, 0, (time.perf_counter() - started) * 1e3))
        # a row whose residuals share one sign moves by a pure constant,
        # which the induced policy ignores; the stall criterion is only
        # meaningful once the update actually moves the policy
        if loss == 0.0 or accepted and not pure_shift and moved <= config.tol:
            converged = True
            break
        if step < _STEP_FLOOR:
            converged = True
            diagnostic = "step size exhausted"
            break
        if stalls >= _DIVERGENCE_PATIENCE:
            cause = "overflowed" if overflows == stalls else "failed to decrease"
            diagnostic = f"loss {cause} for {stalls} consecutive proposals"
            break

    if not converged and not diagnostic:
        diagnostic = f"no convergence within {config.max_iters} iterations"
    return _table(supports, groups, z), TrainTrace(tuple(trace), converged, diagnostic)


def _score_step(z: np.ndarray, targets: np.ndarray, rows: list[int], u: np.ndarray,
                step: float, offsets: np.ndarray, lp: np.ndarray | None = None) -> None:
    """One score-function update, in place, of the distinct ``rows`` of ``z`` (log-probabilities
    ``lp`` if known), row i drawing roll-outs from ``u[i]``; ``offsets[i] = i * z.shape[1]``."""
    (n, rollouts), c = u.shape, z.shape[1]
    row = z[rows]
    if lp is None:
        lp = row - logsumexp_rows(row)[:, None]
    pi = np.exp(lp)
    # counting cumulative masses at or below u is searchsorted(side="right")
    draws = np.minimum((pi.cumsum(axis=1)[:, :, None] <= u[:, None, :]).sum(axis=1), c - 1)
    flat = draws + offsets[:n]
    reward = targets[rows].take(flat) - lp.take(flat)
    adv = reward - (reward.sum(axis=1) / rollouts)[:, None]
    grad = np.bincount(flat.ravel(), weights=adv.ravel(), minlength=n * c).reshape(n, c)
    z[rows] = row + step * (grad / rollouts - pi * (adv.sum(axis=1) / rollouts)[:, None])


def fit_pco_reinforce(
    scenario: Scenario, config: OptimizerConfig
) -> tuple[dict[int, StochasticKernel], TrainTrace]:
    """Score-function descent of the penalized objective.

    Every step samples ``batch`` prompts from the priors (languages drawn
    uniformly) and ``rollouts`` responses per prompt from the current
    policy; the reward of a response is its regression target minus its
    current log-probability, centered by the roll-out batch mean.

    Unlike the regression fitter, exhausting the iteration budget counts
    as success here (the method is stochastic and the budget is the
    contract); only non-finite parameters or a sustained objective
    increase count as failure.
    """
    if config.method != METHOD_REINFORCE:
        raise ValueError(f"fit_pco_reinforce requires method {METHOD_REINFORCE!r}")
    rng = np.random.default_rng(config.seed)
    groups, z, targets, opt, weights, supports = _start(scenario)
    where = {p: (g, r) for g, ps in enumerate(groups) for r, p in enumerate(ps)}
    langs = scenario.lang_ids
    # a slot's draw counts its language's cumulated prior masses at or below
    # u: +inf pads count none, and past the last mass the last prompt pads
    priors = [scenario.priors[lang] for lang in langs]
    pads = [(0, 1 + max(len(d.support) for d in priors) - len(d.support)) for d in priors]
    prior_cum = np.array([np.pad(np.cumsum(d.probs), w, constant_values=math.inf)
                          for d, w in zip(priors, pads)])
    prior_sup = np.array([np.pad(d.support, w, mode="edge") for d, w in zip(priors, pads)])
    total = _in_order(groups, weights.__getitem__)
    offsets = [zg.shape[1] * np.arange(config.batch)[:, None] for zg in z]

    def objective(lps, probs) -> float:
        # exact prior-weighted objective given the fixed target table
        return total([(pi * (lp - t)).sum(axis=1) for lp, pi, t in zip(lps, probs, targets)])

    trace: list[TraceRow] = []
    samples = 0
    lps, prev_policy = _softmax(z)
    diagnostic = ""
    worsening = 0
    last_objective = objective(lps, prev_policy)
    started = time.perf_counter()

    for it in range(1, config.max_iters + 1):
        # per slot: a language, a prompt and the roll-outs' uniforms
        u = rng.random(config.batch * (2 + config.rollouts)).reshape(config.batch, -1)
        lang_at = (u[:, 0] * len(langs)).astype(int) % len(langs)
        slot_prompt = prior_sup[lang_at, (prior_cum[lang_at] <= u[:, 1:2]).sum(axis=1)]
        # (draw number, length group) -> (slots, rows); a prompt's k-th draw
        # is keyed after its (k-1)-th, so each group's waves run in order
        waves, drawn = {}, {}
        for b, p in enumerate(slot_prompt.tolist()):
            k = drawn[p] = drawn.get(p, -1) + 1
            g, r = where[p]
            slots, rows = waves.setdefault((k, g), ([], []))
            slots.append(b)
            rows.append(r)
        new = [zg.copy() for zg in z]  # z is returned if a score turns non-finite
        with np.errstate(over="ignore", invalid="ignore"):  # later waves' NaN is caught below
            for (k, g), (slots, rows) in waves.items():
                # wave 0 finds its rows as the last softmax left them
                _score_step(new[g], targets[g], rows, u[slots, 2:], config.step_size,
                            offsets[g], lps[g][rows] if k == 0 else None)
        samples += config.batch * config.rollouts

        if not all(np.isfinite(row).all() for row in new):
            diagnostic = "non-finite parameters"
            break
        z = new
        lps, probs = _softmax(z)
        obj = objective(lps, probs)
        worsening = worsening + 1 if obj > last_objective else 0
        last_objective = obj
        trace.append(TraceRow(it, obj, _max_tv(probs, opt), samples,
                              (time.perf_counter() - started) * 1e3))
        if _max_tv(probs, prev_policy) <= config.tol:
            break
        prev_policy = probs
        if worsening >= _DIVERGENCE_PATIENCE:
            diagnostic = f"objective increased for {worsening} consecutive iterations"
            break

    table = _table(supports, groups, z)
    return policy_kernels(table, scenario), TrainTrace(tuple(trace), not diagnostic, diagnostic)


@dataclass(frozen=True)
class GradientCheckResult:
    status: str  # "ok" | "inconclusive"
    max_rel_error: float | None
    coordinates_checked: int


def gradient_check(
    scenario: Scenario,
    z: LogitTable,
    h: float,
    norm: str = "l1",
) -> GradientCheckResult:
    """Analytic subgradient versus central finite differences.

    Coordinates within 10h of an L1 kink are skipped (the subgradient is
    set-valued there); if every coordinate sits near a kink the check is
    inconclusive rather than falsely reassuring.
    """
    targets = n_language_optimum(scenario).table()
    weights = prior_weights(scenario)

    def loss_of(table: LogitTable) -> float:
        return dco_loss(table, targets, norm=norm, weights=weights)

    max_rel = 0.0
    checked = 0
    for p in z.prompts():
        resid = z.rows[p] - targets.rows[p]
        for j in range(len(resid)):
            if norm == "l1" and abs(resid[j]) <= 10.0 * h:
                continue
            if norm == "l1":
                analytic = weights[p] * math.copysign(1.0, resid[j])
            else:
                analytic = weights[p] * 2.0 * resid[j]
            bump = np.zeros_like(z.rows[p])
            bump[j] = h
            up = loss_of(z.with_row(p, z.rows[p] + bump))
            down = loss_of(z.with_row(p, z.rows[p] - bump))
            numeric = (up - down) / (2.0 * h)
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
            max_rel = max(max_rel, rel)
            checked += 1
    if checked == 0:
        return GradientCheckResult("inconclusive", None, 0)
    return GradientCheckResult("ok", max_rel, checked)
