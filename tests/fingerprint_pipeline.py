"""Bitwise fingerprints of every numerical path, shared by
``tests/test_fingerprints.py`` and ``scripts/make_fingerprints.py`` so the
two can never drift apart.

The golden pipeline (``golden_pipeline.py``) runs one bijective world in
which every round trip has a single term and every row four entries, so a
change in summation order, ``log`` or ``exp`` cannot show there.  This
family covers what it misses: two, three and four languages, bijective
and noisy translators, C in {6, 10, 17} candidates (crossing numpy's 8-term
pairwise-summation threshold), and exact and Monte-Carlo round trips.

Each quantity is recorded as the SHA-256 of its exact bytes (``tobytes()``
for arrays, ``float.hex`` for scalars, the serialized JSON for metrics),
never rounded, so any change in any bit of any output shows.  Wall-clock
fields (trace ``millis``) are left out by design.
"""

from __future__ import annotations

import hashlib
import json
import platform

import numpy as np

from xlconsist.core import DIVERGENCE_KINDS, DivergenceSpec
from xlconsist.metrics import evaluate_policy
from xlconsist.objectives import (
    MonteCarloConfig,
    initial_logits,
    n_language_optimum,
    n_language_total,
    round_trip_targets,
    target_table,
)
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
    gradient_check,
)
from xlconsist.propositions import run_checks
from xlconsist.scenario import GeneratorConfig, Scenario, generate

MC_SAMPLES = 512
DCO = dict(method=METHOD_DCO, max_iters=2000)
REINFORCE = dict(method=METHOD_REINFORCE, step_size=0.15, batch=4, rollouts=32,
                 max_iters=15)


def world_configs() -> dict[str, GeneratorConfig]:
    """The seeded family: every combination of language count, translator
    kind and candidate count.  Noisy worlds get unbalanced strengths and
    Dirichlet priors, so each route carries its own weight."""
    out = {}
    seed = 0
    for n_langs in (2, 3, 4):
        for mode in ("bijective", "noisy"):
            for cands in (6, 10, 17):
                seed += 1
                noisy = mode == "noisy"
                out[f"L{n_langs}-{mode}-C{cands}"] = GeneratorConfig(
                    n_langs=n_langs, n_prompts=2, n_candidates=cands,
                    translator_mode=mode, noise=0.3 if noisy else 0.0,
                    ref_sharpness=0.5,
                    u=(1.0, 2.5, 0.4, 1.6)[:n_langs] if noisy else None,
                    v=(1.0, 0.7, 3.0, 0.5)[:n_langs] if noisy else None,
                    prior_mode="dirichlet" if noisy else "uniform",
                    seed=seed,
                )
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.asarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _text(obj) -> str:
    return _sha(json.dumps(obj, sort_keys=True).encode())


def _policy(kernels) -> str:
    return _arrays(kernels[lang].rows[p].logp
                   for lang in sorted(kernels) for p in sorted(kernels[lang].rows))


def _trace(trace) -> str:
    rows = [(r.iteration, r.loss.hex(), r.tv_to_optimum.hex(), r.samples)
            for r in trace.rows]
    return _text([rows, trace.converged, trace.diagnostic])


def _route_fingerprints(s: Scenario, mc: MonteCarloConfig | None) -> dict[str, str]:
    """Quantities that depend on whether targets are exact or estimated."""
    targets = round_trip_targets(s, mc)
    keys = sorted(targets)
    opt = n_language_optimum(s, mc=mc)
    rows = [(lang, p) for lang in s.lang_ids for p in s.space(lang).prompts]
    table = target_table(s, targets)
    return {
        "targets.support": _text([list(targets[k].support) for k in keys]),
        "targets.probs": _arrays(targets[k].probs for k in keys),
        "targets.logp": _arrays(targets[k].logp for k in keys),
        "optimum.probs": _arrays(opt.row(lang, p).probs for lang, p in rows),
        "optimum.logp": _arrays(opt.row(lang, p).logp for lang, p in rows),
        "optimum.log_normalizers": _arrays([opt.log_normalizers[p] for _, p in rows]),
        "optimum.floored": _text(opt.floored),
        "target_table.rows": _arrays(table.rows[p] for _, p in rows),
        "total.ref": _arrays([n_language_total(dict(s.ref), s, targets)]),
        "total.optimum": _arrays([n_language_total(opt.policy, s, targets)]),
    }


def _exact_fingerprints(s: Scenario) -> dict[str, str]:
    """Quantities the package computes from exact targets only."""
    out = {}
    opt = n_language_optimum(s)
    for kind in DIVERGENCE_KINDS:
        report = evaluate_policy(s, opt.policy, "optimum", spec=DivergenceSpec(kind))
        out[f"metrics.{kind}"] = _text(report.to_json_dict())
    table, trace = fit_dco(s, OptimizerConfig(**DCO))
    out["dco.trace"] = _trace(trace)
    out["dco.policy"] = _arrays(table.rows[p] for p in table.prompts())
    grad = gradient_check(s, initial_logits(s), h=1e-6)
    rel = None if grad.max_rel_error is None else grad.max_rel_error.hex()
    out["gradient_check"] = _text([grad.status, rel, grad.coordinates_checked])
    policy, trace = fit_pco_reinforce(s, OptimizerConfig(**REINFORCE, seed=s.seed))
    out["reinforce.trace"] = _trace(trace)
    out["reinforce.policy"] = _policy(policy)
    for self_test in (False, True):
        results = [[r.check_id, r.status, r.detail,
                    None if r.observed is None else float(r.observed).hex(), r.expected]
                   for r in run_checks(s, self_test=self_test)]
        out[f"run_checks.self_test={self_test}"] = _text(results)
    return out


def environment() -> dict[str, str]:
    """The interpreter and numpy versions the fingerprints are made under:
    a last bit can move with either, so a mismatch names them first."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def compute_fingerprints() -> dict[str, dict[str, str]]:
    """World name -> quantity name -> SHA-256, in a fixed order."""
    out = {}
    for name, config in world_configs().items():
        s = generate(config)
        mc = MonteCarloConfig(samples=MC_SAMPLES, seed=config.seed)
        out[f"{name}/exact"] = {**_route_fingerprints(s, None), **_exact_fingerprints(s)}
        out[f"{name}/mc"] = _route_fingerprints(s, mc)
    return out
