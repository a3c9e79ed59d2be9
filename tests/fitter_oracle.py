"""The stacked-array fitters' oracle: ``fit_dco`` and ``fit_pco_reinforce``
as they were written with one ``LogDist`` per prompt and per iteration,
kept unchanged.

``tests/test_fitters.py`` checks that the array fitters in
``xlconsist.optim`` reproduce every trace value and every output byte of
these loops.  Wall-clock ``millis`` aside, the two must agree bit for bit.
"""

from __future__ import annotations

import time
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
)
from xlconsist.optim import (
    _DIVERGENCE_PATIENCE,
    _STEP_FLOOR,
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    TraceRow,
    TrainTrace,
)
from xlconsist.scenario import Scenario


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
    return (optimum.table(), prior_weights(scenario), opt_rows, z,
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
