#!/usr/bin/env python3
"""Time the paper's pipeline stage by stage as the number of languages grows.

For each language count N, one world is generated (4 prompts x 6
candidates unless ``--prompts`` says otherwise, bijective translators,
seed 3) and four stages are timed:
``n_language_optimum``, ``evaluate_policy`` on that optimum, ``run_checks``
and ``fit_dco`` to convergence; so is ``check_multi_language_minimality``
on the optimum (``minimality_s``), the check ``run_checks`` spends most
on.  One JSON line is printed per N with the wall time of each in seconds
and a SHA-256 of every output bit the four stages produce (policy rows,
metrics, check results, the fitted scores and the trace without its
timings); the minimality result is among the check results.  A change that keeps the outputs keeps the
hash.  Generating the world (``generate_s``) and its dict round trip
(``to_dict_s``, ``from_dict_s``) are timed too, outside the hash.  The
times are single wall-clock runs, so they are evidence only; performance
claims stay on ``bench/run.py``.

    python scripts/scale_probe.py                 # N = 2, 4, 8, 16, 26
    python scripts/scale_probe.py --langs 2 4
    python scripts/scale_probe.py --langs 8 --prompts 64
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from xlconsist.metrics import evaluate_policy  # noqa: E402
from xlconsist.objectives import n_language_optimum  # noqa: E402
from xlconsist.optim import METHOD_DCO, OptimizerConfig, fit_dco  # noqa: E402
from xlconsist.propositions import check_multi_language_minimality, run_checks  # noqa: E402
from xlconsist.scenario import (  # noqa: E402
    GeneratorConfig,
    generate,
    scenario_from_dict,
    scenario_to_dict,
)

LANGS = (2, 4, 8, 16, 26)


def probe(n_langs: int, n_prompts: int = 4) -> dict:
    """Stage times and the output hash of one N-language world."""
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    times = {}

    def timed(stage, f, *args):
        start = time.perf_counter()
        out = f(*args)
        times[f"{stage}_s"] = time.perf_counter() - start
        return out

    s = timed("generate", generate, GeneratorConfig(
        n_langs=n_langs, n_prompts=n_prompts, n_candidates=6, seed=3))
    timed("from_dict", scenario_from_dict, timed("to_dict", scenario_to_dict, s))
    opt = timed("optimum", n_language_optimum, s)
    for lang in s.lang_ids:
        for p, row in sorted(opt.policy[lang].rows.items()):
            put(p, row.support, row.probs.tobytes(), row.logp.tobytes(),
                opt.log_normalizers[p].hex())
    put(opt.floored)
    report = timed("evaluate", evaluate_policy, s, opt.policy, "optimum")
    put(json.dumps(report.to_json_dict()))
    for r in timed("run_checks", run_checks, s):
        put(r.check_id, r.status, r.detail,
            None if r.observed is None else float(r.observed).hex(), r.expected)
    timed("minimality", check_multi_language_minimality, s, opt)
    table, trace = timed("fit_dco", fit_dco, s, OptimizerConfig(METHOD_DCO))
    for p in table.prompts():
        put(p, table.rows[p].tobytes())
    put(trace.converged, trace.diagnostic,
        [(r.iteration, r.loss.hex(), r.tv_to_optimum.hex(), r.samples) for r in trace.rows])
    return {"langs": n_langs, "prompts": n_prompts, **times, "sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--langs", type=int, nargs="+", default=list(LANGS))
    parser.add_argument("--prompts", type=int, default=4, help="prompts per language")
    args = parser.parse_args()
    for n in args.langs:
        print(json.dumps(probe(n, args.prompts)), flush=True)


if __name__ == "__main__":
    main()
