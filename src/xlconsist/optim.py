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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from xlconsist.core import LogDist, StochasticKernel, logsumexp, total_variation
from xlconsist.objectives import (
    LogitTable,
    dco_loss,
    initial_logits,
    n_language_optimum,
    policy_kernels,
    prior_weights,
    round_trip_targets,
    target_table,
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.batch < 1 or self.rollouts < 1:
            raise ValueError("batch and rollouts must be >= 1")
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
        return [
            {
                "iteration": r.iteration,
                "loss": r.loss,
                "tv_to_optimum": r.tv_to_optimum,
                "samples": r.samples,
                "millis": r.millis,
            }
            for r in self.rows
        ]


def _max_row_tv(rows_a: Mapping[int, LogDist], rows_b: Mapping[int, LogDist]) -> float:
    return max(total_variation(rows_a[p], rows_b[p]) for p in rows_a)


def _policy_rows(table_rows: dict[int, np.ndarray], supports) -> dict[int, LogDist]:
    return {p: LogDist.from_logp(supports[p], z) for p, z in table_rows.items()}


def _start(scenario: Scenario):
    """What both fitters start from: the target table, the prior weights,
    the closed-form rows, the reference scores and their supports."""
    optimum = n_language_optimum(scenario)
    opt_rows = {p: row for kern in optimum.policy.values() for p, row in kern.rows.items()}
    init = initial_logits(scenario)
    z = {p: init.rows[p].copy() for p in init.prompts()}
    return (target_table(scenario, optimum.targets), prior_weights(scenario), opt_rows, z,
            init.supports)


def fit_dco(scenario: Scenario, config: OptimizerConfig) -> tuple[LogitTable, TrainTrace]:
    """Subgradient descent of the regression loss from the reference scores.

    Consumes no roll-outs.  A proposed step that raises the loss is
    reverted and the step size halved, so accepted losses never increase;
    fifty consecutive unproductive proposals count as failure.
    """
    if config.method != METHOD_DCO:
        raise ValueError(f"fit_dco requires method {METHOD_DCO!r}")
    targets, weights, opt_rows, z, supports = _start(scenario)

    def loss_of(rows: dict[int, np.ndarray]) -> float:
        return dco_loss(LogitTable(supports, rows), targets, norm=config.norm,
                        weights=weights)

    loss = loss_of(z)
    policy = _policy_rows(z, supports)
    step = config.step_size
    stalls = 0
    trace: list[TraceRow] = []
    converged = False
    diagnostic = ""
    started = time.perf_counter()

    if loss == 0.0:
        # already at the targets: nothing to iterate
        tv_opt = _max_row_tv(policy, opt_rows)
        trace.append(TraceRow(0, loss, tv_opt, 0, 0.0))
        return LogitTable(supports, z), TrainTrace(tuple(trace), True)

    for it in range(1, config.max_iters + 1):
        proposal = {}
        pure_shift = True
        for p, row in z.items():
            resid = row - targets.rows[p]
            if config.norm == "l1":
                # clip each coordinate at its kink: the L1 loss is exactly
                # minimized along the coordinate there, and overshooting
                # would only oscillate
                move = np.sign(resid) * np.minimum(step * weights[p], np.abs(resid))
            else:
                move = step * weights[p] * 2.0 * resid
            if pure_shift and np.ptp(move) > 1e-15:
                pure_shift = False
            proposal[p] = row - move
        new_loss = loss_of(proposal)
        accepted = new_loss <= loss
        if accepted:
            z = proposal
            new_policy = _policy_rows(z, supports)
            moved = _max_row_tv(new_policy, policy)
            policy = new_policy
            loss = new_loss
            stalls = 0
        else:
            step *= 0.5
            stalls += 1
            moved = None

        tv_opt = _max_row_tv(policy, opt_rows)
        trace.append(TraceRow(it, loss, tv_opt, 0,
                              (time.perf_counter() - started) * 1e3))
        if loss == 0.0:
            converged = True
            break
        # a row whose residuals share one sign moves by a pure constant,
        # which the induced policy ignores; the stall criterion is only
        # meaningful once the update actually moves the policy
        if accepted and not pure_shift and moved is not None and moved <= config.tol:
            converged = True
            break
        if step < _STEP_FLOOR:
            converged = True
            diagnostic = "step size exhausted"
            break
        if stalls >= _DIVERGENCE_PATIENCE:
            diagnostic = f"loss failed to decrease for {stalls} consecutive proposals"
            break

    if not converged and not diagnostic:
        diagnostic = f"no convergence within {config.max_iters} iterations"
    table = LogitTable(supports, z)
    return table, TrainTrace(tuple(trace), converged, diagnostic)


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
    targets, weights, opt_rows, z, supports = _start(scenario)
    langs = scenario.lang_ids
    prior_cums = {
        lang: (np.cumsum(scenario.priors[lang].probs),
               np.asarray(scenario.priors[lang].support))
        for lang in langs
    }

    def objective(policy: dict[int, LogDist]) -> float:
        # exact prior-weighted objective given the fixed target table
        total = 0.0
        for p, row in policy.items():
            total += weights[p] * float(np.sum(row.probs * (row.logp - targets.rows[p])))
        return total

    trace: list[TraceRow] = []
    samples = 0
    prev_policy = _policy_rows(z, supports)
    converged = False
    diagnostic = ""
    worsening = 0
    last_objective = objective(prev_policy)
    started = time.perf_counter()

    for it in range(1, config.max_iters + 1):
        for _ in range(config.batch):
            lang = langs[int(rng.random() * len(langs)) % len(langs)]
            cum, sup = prior_cums[lang]
            p = int(sup[min(int(np.searchsorted(cum, rng.random(), side="right")),
                            len(sup) - 1)])
            row = z[p]
            lp = row - logsumexp(row)
            pi = np.exp(lp)
            cum_pi = np.cumsum(pi)
            draws = np.minimum(
                np.searchsorted(cum_pi, rng.random(config.rollouts), side="right"),
                len(pi) - 1,
            )
            reward = targets.rows[p][draws] - lp[draws]
            adv = reward - reward.mean()
            grad = np.zeros_like(row)
            np.add.at(grad, draws, adv)
            grad = grad / config.rollouts - pi * (adv.mean())
            z[p] = row + config.step_size * grad
        samples += config.batch * config.rollouts

        if any(not np.all(np.isfinite(r)) for r in z.values()):
            diagnostic = "non-finite parameters"
            break
        policy = _policy_rows(z, supports)
        obj = objective(policy)
        worsening = worsening + 1 if obj > last_objective else 0
        last_objective = obj
        tv_opt = _max_row_tv(policy, opt_rows)
        trace.append(TraceRow(it, obj, tv_opt, samples,
                              (time.perf_counter() - started) * 1e3))
        if _max_row_tv(policy, prev_policy) <= config.tol:
            converged = True
            break
        prev_policy = policy
        if worsening >= _DIVERGENCE_PATIENCE:
            diagnostic = f"objective increased for {worsening} consecutive iterations"
            break

    if not diagnostic and not converged:
        converged = True  # ran its budget without diverging
    table = LogitTable(supports, z)
    return policy_kernels(table, scenario), TrainTrace(tuple(trace), converged, diagnostic)


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
    targets = target_table(scenario, round_trip_targets(scenario))
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
