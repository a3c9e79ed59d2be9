"""The three workloads: how set-up builds their inputs from the seed, what
one item calls, the correctness gate each item must pass, and the per-item
counts the traced run reports.

Every item calls the public functions of ``xlconsist`` directly; the
benchmark wraps each call in a span from outside.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from harness import NULL_TRACER
from xlconsist import metrics, objectives, optim, propositions, scenario
from xlconsist.core import StochasticKernel, total_variation

# strength_sweep.py's balanced cross-weight pairs (beta1, beta2)
WEIGHT_PAIRS = [(0.1, 10.0), (0.5, 2.0), (1.0, 1.0), (2.0, 0.5), (10.0, 0.1)]
SHARPNESS = (0.3, 1.0, 3.0)
LEAKS = (0.05, 0.2, 0.5)

# REINFORCE budget of optimizer_race.py at a fixed iteration count
REINFORCE = dict(step_size=0.15, batch=16, rollouts=64, max_iters=200)
# twice the largest final TV under that budget over the 240 race worlds of
# seeds 0-29 (4x6, 0.045)
REINFORCE_TV_BOUND = 0.09
DCO_TV_BOUND = 1e-6
MC_SAMPLES = 4096


def _seeds(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(n)]


def _max_row_tv(policy, optimum: objectives.ClosedFormOptimum, s) -> float:
    return max(total_variation(policy[lang].row(p), optimum.row(lang, p))
               for lang in s.lang_ids for p in s.space(lang).prompts)


def round_trip_shape(s: scenario.Scenario) -> tuple[int, int, int]:
    """(nonzero triples, summed support size, rows) of the exact round-trip
    target of every prompt, counted from the kernels' nonzero entries."""
    terms = support = rows = 0
    a, b = s.lang_ids
    for lang, via in ((a, b), (b, a)):
        out, pi, back = s.translator(lang, via), s.ref[via], s.translator(via, lang)
        for p in s.space(lang).prompts:
            reached: set[int] = set()
            first = out.row(p)
            for x, px in zip(first.support, first.probs):
                if px == 0.0:
                    continue
                mid = pi.row(x)
                for y, py in zip(mid.support, mid.probs):
                    if py == 0.0:
                        continue
                    last = back.row(y)
                    hit = [z for z, pz in zip(last.support, last.probs) if pz > 0.0]
                    terms += len(hit)
                    reached.update(hit)
            support += len(reached)
            rows += 1
    return terms, support, rows


def _core_counts(s: scenario.Scenario) -> dict[str, float]:
    terms, support, rows = round_trip_shape(s)
    return {"core.pushforward_terms": terms, "core.support_sum": support, "core.rows": rows}


# ---------------------------------------------------------------------------
# eval-sparse: what ``xlconsist eval`` does, on bijective worlds from files


@dataclass(frozen=True)
class SparseCase:
    path: Path
    scenario: scenario.Scenario


@dataclass(frozen=True)
class SparseOut:
    scenario: scenario.Scenario
    optimum: objectives.ClosedFormOptimum
    report_opt: metrics.MetricsReport
    report_ref: metrics.MetricsReport
    docs: tuple[str, str]


class EvalSparse:
    name = "eval-sparse"
    prompts, cands, pool = 4, 6, 15

    def build(self, seed: int, workdir: Path) -> list[SparseCase]:
        cases = []
        for i, world_seed in enumerate(_seeds(seed, self.pool)):
            beta1, beta2 = WEIGHT_PAIRS[i % len(WEIGHT_PAIRS)]
            s = scenario.generate(scenario.GeneratorConfig(
                n_langs=2, n_prompts=self.prompts, n_candidates=self.cands,
                u=(1.0, beta2), v=(1.0, beta1),
                ref_sharpness=SHARPNESS[i % len(SHARPNESS)], seed=world_seed))
            path = workdir / f"world-{i:02d}.json"
            scenario.save(s, path)
            cases.append(SparseCase(path, s))
        return cases

    def item(self, case: SparseCase, tracer) -> SparseOut:
        with tracer.span("scenario.load"):
            s = scenario.load(case.path)
        with tracer.span("scenario.validate"):
            violations = scenario.validate(s)
        if violations:
            raise ValueError(f"{case.path.name}: {violations[0]}")
        with tracer.span("objectives.optimum"):
            opt = objectives.closed_form_optimum(s)
        with tracer.span("metrics.evaluate"):
            rep_opt = metrics.evaluate_policy(s, opt.policy, "optimum")
        with tracer.span("metrics.evaluate"):
            rep_ref = metrics.evaluate_policy(s, dict(s.ref), "ref")
        with tracer.span("metrics.to_json"):
            docs = (json.dumps(rep_opt.to_json_dict()), json.dumps(rep_ref.to_json_dict()))
        return SparseOut(s, opt, rep_opt, rep_ref, docs)

    def gate(self, case: SparseCase, out: SparseOut, optimum=None) -> list[str]:
        optimum = out.optimum if optimum is None else optimum
        problems = []
        check = propositions.check_optimum_consistency(out.scenario, optimum)
        if check.status != "pass":
            problems.append(f"optimum-consistency {check.status}: {check.detail}")
        unsatisfied = sum(not r.satisfied for r in out.report_opt.consistency)
        if unsatisfied:
            problems.append(f"{unsatisfied} consistency reports of the optimum unsatisfied")
        if out.report_opt.rankc.clc_all != 1.0:
            problems.append(f"optimum clc_all {out.report_opt.rankc.clc_all!r} != 1.0")
        if out.scenario != case.scenario:
            problems.append("loaded scenario differs from the one saved")
        return problems

    def counts(self, case: SparseCase, out: SparseOut) -> dict[str, float]:
        reports = out.report_opt.consistency + out.report_ref.consistency
        return {
            **_core_counts(case.scenario),
            "scenario.bytes_read": case.path.stat().st_size,
            "objectives.floored_rows": len(out.optimum.floored),
            "metrics.consistency_reports": len(reports),
            "metrics.support_extended": sum(r.support_extended for r in reports),
            "metrics.optimum_reports": len(out.report_opt.consistency),
            "metrics.optimum_satisfied": sum(r.satisfied for r in out.report_opt.consistency),
        }

    def optimum_of(self, case: SparseCase, out: SparseOut):
        return out.optimum


# ---------------------------------------------------------------------------
# eval-dense: exact and Monte-Carlo optima on leaky worlds


@dataclass(frozen=True)
class DenseCase:
    scenario: scenario.Scenario
    mc: objectives.MonteCarloConfig
    tv_bound: float


@dataclass(frozen=True)
class DenseOut:
    optimum: objectives.ClosedFormOptimum
    optimum_mc: objectives.ClosedFormOptimum
    report: metrics.MetricsReport


class EvalDense:
    name = "eval-dense"
    prompts, cands, pool = 6, 6, 12

    def build(self, seed: int, workdir: Path) -> list[DenseCase]:
        seeds = _seeds(seed, 2 * self.pool)
        cases = []
        for i in range(self.pool):
            s = scenario.generate(scenario.GeneratorConfig(
                n_langs=2, n_prompts=self.prompts, n_candidates=self.cands,
                translator_mode="noisy", noise=LEAKS[i % len(LEAKS)], seed=seeds[2 * i]))
            # A round-trip target lives on at most the K candidates of its
            # language; the expected TV of a K-cell empirical distribution
            # from n samples is at most sqrt(K/n)/2, so sqrt(K/n) leaves a
            # margin of one expectation.
            k = max(sum(len(c) for c in sp.candidates.values()) for sp in s.spaces)
            cases.append(DenseCase(s, objectives.MonteCarloConfig(MC_SAMPLES, seeds[2 * i + 1]),
                                   math.sqrt(k / MC_SAMPLES)))
        return cases

    def item(self, case: DenseCase, tracer) -> DenseOut:
        s = case.scenario
        with tracer.span("objectives.optimum"):
            opt = objectives.closed_form_optimum(s)
        with tracer.span("objectives.optimum_mc"):
            opt_mc = objectives.closed_form_optimum(s, mc=case.mc)
        with tracer.span("metrics.evaluate"):
            report = metrics.evaluate_policy(s, opt.policy, "optimum")
        return DenseOut(opt, opt_mc, report)

    def gate(self, case: DenseCase, out: DenseOut, optimum=None) -> list[str]:
        optimum = out.optimum if optimum is None else optimum
        problems = []
        check = propositions.check_logit_target_equivalence(case.scenario, optimum)
        if check.status != "pass":
            problems.append(f"logit-target-equivalence {check.status}: {check.detail}")
        tv = _max_row_tv(out.optimum_mc.policy, optimum, case.scenario)
        if not tv <= case.tv_bound:
            problems.append(f"Monte-Carlo optimum TV {tv:.4f} > bound {case.tv_bound:.4f}")
        return problems

    def counts(self, case: DenseCase, out: DenseOut) -> dict[str, float]:
        s = case.scenario
        a, b = s.lang_ids
        # round trips through deterministic translators are computed exactly
        sampled = sum(
            len(s.space(lang).prompts)
            for lang, via in ((a, b), (b, a))
            if not (s.translator(lang, via).is_deterministic()
                    and s.translator(via, lang).is_deterministic()))
        reports = out.report.consistency
        return {
            **_core_counts(s),
            "objectives.mc_samples": case.mc.samples * sampled,
            "objectives.floored_rows": len(out.optimum.floored) + len(out.optimum_mc.floored),
            "objectives.mc_tv_max": _max_row_tv(out.optimum_mc.policy, out.optimum, s),
            "metrics.consistency_reports": len(reports),
            "metrics.support_extended": sum(r.support_extended for r in reports),
            "metrics.optimum_reports": len(reports),
            "metrics.optimum_satisfied": sum(r.satisfied for r in reports),
        }

    def optimum_of(self, case: DenseCase, out: DenseOut):
        return out.optimum


# ---------------------------------------------------------------------------
# race: the off-policy and on-policy fitters on the same bijective worlds


@dataclass(frozen=True)
class RaceCase:
    scenario: scenario.Scenario
    dco: optim.OptimizerConfig
    reinforce: optim.OptimizerConfig


@dataclass(frozen=True)
class RaceOut:
    dco_policy: dict[int, StochasticKernel]
    dco_trace: optim.TrainTrace
    reinforce_trace: optim.TrainTrace


class Race:
    name = "race"
    prompts, cands, pool = 4, 6, 8

    def build(self, seed: int, workdir: Path) -> list[RaceCase]:
        seeds = _seeds(seed, 2 * self.pool)
        return [
            RaceCase(
                scenario.generate(scenario.GeneratorConfig(
                    n_langs=2, n_prompts=self.prompts, n_candidates=self.cands,
                    seed=seeds[2 * i])),
                optim.OptimizerConfig(method=optim.METHOD_DCO),
                optim.OptimizerConfig(method=optim.METHOD_REINFORCE, seed=seeds[2 * i + 1],
                                      **REINFORCE),
            )
            for i in range(self.pool)
        ]

    def item(self, case: RaceCase, tracer) -> RaceOut:
        s = case.scenario
        with tracer.span("optim.fit_dco"):
            table, dco_trace = optim.fit_dco(s, case.dco)
        with tracer.span("optim.fit_reinforce"):
            _, rf_trace = optim.fit_pco_reinforce(s, case.reinforce)
        return RaceOut(objectives.policy_kernels(table, s), dco_trace, rf_trace)

    def gate(self, case: RaceCase, out: RaceOut, optimum=None) -> list[str]:
        s = case.scenario
        optimum = objectives.closed_form_optimum(s) if optimum is None else optimum
        problems = []
        dco, rf = out.dco_trace, out.reinforce_trace
        if not dco.converged:
            problems.append(f"DCO did not converge: {dco.diagnostic}")
        if not dco.final_tv <= DCO_TV_BOUND:
            problems.append(f"DCO final TV {dco.final_tv:.3e} > {DCO_TV_BOUND}")
        if dco.total_samples != 0:
            problems.append(f"DCO consumed {dco.total_samples} samples")
        tv = _max_row_tv(out.dco_policy, optimum, s)
        if not tv <= DCO_TV_BOUND:
            problems.append(f"DCO policy is {tv:.3e} in TV from the closed form")
        if rf.diagnostic:
            problems.append(f"REINFORCE diagnostic: {rf.diagnostic}")
        expected = len(rf.rows) * case.reinforce.batch * case.reinforce.rollouts
        if rf.total_samples != expected:
            problems.append(f"REINFORCE ledger {rf.total_samples} != {expected}")
        if not rf.final_tv <= REINFORCE_TV_BOUND:
            problems.append(f"REINFORCE final TV {rf.final_tv:.4f} > {REINFORCE_TV_BOUND}")
        return problems

    def counts(self, case: RaceCase, out: RaceOut) -> dict[str, float]:
        return {
            **_core_counts(case.scenario),
            "optim.dco_iterations": len(out.dco_trace.rows),
            "optim.dco_samples": out.dco_trace.total_samples,
            "optim.reinforce_iterations": len(out.reinforce_trace.rows),
            "optim.reinforce_samples": out.reinforce_trace.total_samples,
            "optim.reinforce_tv_max": out.reinforce_trace.final_tv,
        }

    def optimum_of(self, case: RaceCase, out: RaceOut):
        return objectives.closed_form_optimum(case.scenario)


WORKLOADS = {w.name: w for w in (EvalSparse(), EvalDense(), Race())}


def gate_self_test(workload, case) -> list[str]:
    """Run one item, then gate it against an optimum whose every strength
    exponent is off by one; a sound gate returns failures."""
    out = workload.item(case, NULL_TRACER)
    corrupted = propositions.corrupt_exponent(case.scenario, workload.optimum_of(case, out))
    return workload.gate(case, out, optimum=corrupted)
