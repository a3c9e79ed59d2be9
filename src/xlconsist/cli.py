"""Command-line harness for reproducible experiments.

Subcommands: ``gen`` writes a scenario file, ``eval`` scores a policy on
one, ``fit`` trains a policy and writes it with its trace, ``verify``
runs the guarantee checks, ``report`` merges metric files into one
long-format CSV.

Exit codes: 0 success, 1 input or validation error, 2 convergence or
verification failure.  Every output file gets a sibling
``<name>.manifest.json`` recording the exact configuration, seeds, paths,
and timestamps; rerunning with the same inputs reproduces the result
payloads byte for byte (manifests differ only in their timestamps).
No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import xlconsist
from xlconsist.core import LogDist, StochasticKernel
from xlconsist.metrics import evaluate_policy
from xlconsist.objectives import n_language_optimum, policy_kernels
from xlconsist.optim import (
    METHOD_DCO,
    METHOD_REINFORCE,
    OptimizerConfig,
    fit_dco,
    fit_pco_reinforce,
)
from xlconsist.propositions import builtin_suite, run_checks
from xlconsist.scenario import (
    GeneratorConfig,
    Scenario,
    ScenarioFormatError,
    _id,
    _ids,
    _list,
    _need,
    _new,
    _object,
    _row_dist,
    generate,
    load,
    save,
    validate,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILURE = 2


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _config_of(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("func", "command")}


def _write_manifest(out_path: Path, command: str, config: dict,
                    inputs: list[str], outputs: list[str],
                    started: str, seed=None) -> None:
    manifest = {
        "version": "1",
        "artifact_version": xlconsist.__version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": inputs,
        "outputs": outputs,
        "started_at": started,
        "finished_at": _now(),
    }
    Path(str(out_path) + ".manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n")


def _load_scenario(path: str) -> Scenario:
    try:
        s = load(path)
    except FileNotFoundError:
        raise CliError(f"scenario file not found: {path}")
    except ScenarioFormatError as err:
        raise CliError(f"cannot load {path}: {err}")
    violations = validate(s)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise CliError(f"scenario {path} is invalid: {listing}")
    return s


def _parse_translator(text: str) -> tuple[str, float]:
    if text == "bijective":
        return "bijective", 0.0
    if text.startswith("noisy:"):
        try:
            delta = float(text.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad translator spec {text!r}")
        return "noisy", delta
    raise CliError(f"bad translator spec {text!r}; use bijective or noisy:<delta>")


def _parse_vector(text: str | None, n: int, name: str):
    if text is None:
        return None
    try:
        vec = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise CliError(f"--{name} expects comma-separated numbers")
    if len(vec) != n:
        raise CliError(f"--{name} needs {n} entries, got {len(vec)}")
    return vec


def cmd_gen(args) -> int:
    started = _now()
    mode, delta = _parse_translator(args.translator)
    try:
        config = GeneratorConfig(
            n_langs=args.langs, n_prompts=args.prompts, n_candidates=args.cands,
            translator_mode=mode, noise=delta, ref_sharpness=args.alpha,
            u=_parse_vector(args.u, args.langs, "u"),
            v=_parse_vector(args.v, args.langs, "v"),
            seed=args.seed,
        )
    except ValueError as err:
        raise CliError(str(err))
    scenario = generate(config)
    out = Path(args.out)
    save(scenario, out)
    _write_manifest(out, "gen", _config_of(args) | {"translator_mode": mode, "noise": delta},
                    [], [str(out)], started, seed=args.seed)
    print(f"wrote scenario with {args.langs} languages, {args.prompts} prompts, "
          f"{args.cands} candidates to {out}")
    return EXIT_OK


def _policy_rows_doc(policy: dict[int, StochasticKernel], method: str) -> dict:
    rows = []
    for lang in sorted(policy):
        for p in sorted(policy[lang].rows):
            row = policy[lang].row(p)
            rows.append({
                "lang": lang,
                "prompt": p,
                "support": list(row.support),
                "probs": [float(x) for x in row.probs],
            })
    return {"version": "1", "method": method, "rows": rows}


def _load_policy_file(path: str, scenario: Scenario) -> dict[int, StochasticKernel]:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CliError(f"policy file not found: {path}")
    except json.JSONDecodeError as err:
        raise CliError(f"cannot parse policy {path}: line {err.lineno}: {err.msg}")
    per_lang: dict[int, dict[int, LogDist]] = {lang: {} for lang in scenario.lang_ids}
    try:
        version = _need(doc, "version", "document")
        if version != "1":
            raise CliError(f"unsupported policy version {version!r}")
        for row in _need(doc, "rows", "document", _list):
            lang = _need(row, "lang", "row", _id)
            if lang not in per_lang:
                raise ScenarioFormatError(f"row for unknown language {lang}")
            p = _new(_need(row, "prompt", f"row lang={lang}", _id), per_lang[lang],
                     f"row lang={lang} prompt")
            where = f"row lang={lang} prompt={p}"
            candidates = scenario.space(lang).candidates.get(p)
            if candidates is None:
                raise ScenarioFormatError(f"{where}: prompt not in the scenario")
            if _need(row, "support", where, _ids) != tuple(sorted(candidates)):
                raise ScenarioFormatError(f"{where}: support is not the candidates "
                                          f"{sorted(candidates)}")
            per_lang[lang][p] = _row_dist(candidates, _need(row, "probs", where, _list), where)
    except ScenarioFormatError as err:
        raise CliError(f"policy {path}: {err}")
    for lang in scenario.lang_ids:
        missing = set(scenario.space(lang).prompts) - set(per_lang[lang])
        if missing:
            raise CliError(f"policy misses prompts {sorted(missing)} of language {lang}")
    return {lang: StochasticKernel(lang, lang, rows) for lang, rows in per_lang.items()}


def _resolve_policy(source: str, scenario: Scenario):
    if source == "ref":
        return dict(scenario.ref), "ref"
    if source == "optimum":
        return dict(n_language_optimum(scenario).policy), "optimum"
    return _load_policy_file(source, scenario), Path(source).name


def cmd_eval(args) -> int:
    started = _now()
    scenario = _load_scenario(args.scenario)
    policy, label = _resolve_policy(args.policy, scenario)
    report = evaluate_policy(scenario, policy, label)
    doc = report.to_json_dict()
    doc["scenario"] = Path(args.scenario).name
    out = Path(args.out)
    if args.format == "json":
        out.write_text(json.dumps(doc, indent=1) + "\n")
    else:
        rows = report.to_csv_rows()
        with out.open("w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["metric", "scope", "prompt", "value", "policy", "seed"])
            writer.writeheader()
            writer.writerows(rows)
    _write_manifest(out, "eval", _config_of(args), [args.scenario], [str(out)],
                    started, seed=scenario.seed)
    print(f"clc_all={report.rankc.clc_all:.6f} "
          f"accuracy={{{', '.join(f'{k}: {v:.4f}' for k, v in sorted(report.accuracy.items()))}}}")
    return EXIT_OK


def cmd_fit(args) -> int:
    started = _now()
    scenario = _load_scenario(args.scenario)
    method = {"dco": METHOD_DCO, "pco-reinforce": METHOD_REINFORCE}.get(args.method)
    if method is None:
        raise CliError(f"unknown method {args.method!r}")
    try:
        config = OptimizerConfig(
            method=method, step_size=args.step, max_iters=args.iters, tol=args.tol,
            rollouts=args.rollouts, batch=args.batch, norm=args.norm, seed=args.seed,
        )
    except ValueError as err:
        raise CliError(str(err))

    if method == METHOD_DCO:
        table, trace = fit_dco(scenario, config)
        policy = policy_kernels(table, scenario)
    else:
        policy, trace = fit_pco_reinforce(scenario, config)

    out = Path(args.out)
    out.write_text(json.dumps(_policy_rows_doc(policy, args.method), indent=1) + "\n")
    trace_path = out.with_suffix(out.suffix + ".trace.csv")
    with trace_path.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["iteration", "loss", "tv_to_optimum", "samples", "millis"])
        writer.writeheader()
        writer.writerows(trace.csv_rows())
    _write_manifest(out, "fit", _config_of(args), [args.scenario],
                    [str(out), str(trace_path)], started, seed=args.seed)
    print(f"{args.method}: {len(trace.rows)} iterations, "
          f"final tv_to_optimum={trace.final_tv:.3e}, samples={trace.total_samples}")
    if not trace.converged:
        print(f"convergence failure: {trace.diagnostic}", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.scenario:
        scenarios = [(Path(args.scenario).name, _load_scenario(args.scenario))]
    elif args.suite:
        scenarios = builtin_suite()
    else:
        raise CliError("verify needs --scenario <file> or --suite")
    any_failed = False
    for name, scenario in scenarios:
        results = run_checks(scenario, self_test=args.self_test)
        for r in results:
            line = f"[{name}] {r.check_id}: {r.status.upper()}"
            if r.status == "fail":
                line += f" observed={r.observed!r} expected {r.expected} ({r.detail})"
                any_failed = True
            elif r.detail:
                line += f" ({r.detail})"
            print(line)
    if any_failed:
        return EXIT_FAILURE
    return EXIT_OK


def _report_rows(doc, path: str, merged: list[dict]) -> None:
    """Append the long-format rows of one metrics document to ``merged``."""
    version = _need(doc, "version", path)
    if version != "1":
        raise CliError(f"{path}: unsupported metrics version {version!r}")
    scenario = doc.get("scenario", Path(path).name)
    policy = doc.get("policy", "")
    seed = doc.get("seed", "")

    def add(metric, scope, value):
        merged.append({"scenario": scenario, "policy": policy, "metric": metric,
                       "scope": scope, "value": value, "seed": seed})

    rankc = _need(doc, "rankc", path, _object)
    add("clc_all", "all", _need(rankc, "clc_all", f"{path} rankc"))
    for pair in _need(rankc, "pairs", f"{path} rankc", _list):
        scope = "-".join(str(x) for x in _need(pair, "langs", f"{path} rankc pair", _list))
        add("clc", scope, _need(pair, "clc", f"{path} rankc pair {scope}"))
        for g, v in enumerate(_need(pair, "per_prompt", f"{path} rankc pair {scope}", _list)):
            add("rankc", f"{scope}[{g}]", v)
    for lang, v in _need(doc, "accuracy", path, _object).items():
        add("accuracy", lang, v)
    for lang, v in _object(doc.get("changed_fraction", {}), f"{path} changed_fraction").items():
        add("changed_fraction", lang, v)
    for lang, stats in _object(doc.get("entropy", {}), f"{path} entropy").items():
        where = f"{path} entropy {lang}"
        for part in ("correct", "incorrect"):
            if _object(stats, where).get(part) is not None:
                add(f"entropy_{part}_mean", lang, _need(stats[part], "mean", f"{where} {part}"))
                add(f"entropy_{part}_std", lang, _need(stats[part], "std", f"{where} {part}"))


def cmd_report(args) -> int:
    started = _now()
    merged = []
    for path in args.inputs:
        try:
            doc = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise CliError(f"metrics file not found: {path}")
        except json.JSONDecodeError as err:
            raise CliError(f"cannot parse {path}: {err.msg}")
        try:
            _report_rows(doc, path, merged)
        except ScenarioFormatError as err:
            raise CliError(str(err))
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["scenario", "policy", "metric", "scope", "value", "seed"])
        writer.writeheader()
        writer.writerows(merged)
    _write_manifest(out, "report", {"inputs": list(args.inputs), "out": args.out},
                    list(args.inputs), [str(out)], started)
    print(f"merged {len(args.inputs)} metric files into {out} ({len(merged)} rows)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xlconsist",
        description="Crosslingual-consistency laboratory on finite prompted models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a scenario file")
    g.add_argument("--langs", type=int, default=2)
    g.add_argument("--prompts", type=int, default=4)
    g.add_argument("--cands", type=int, default=4)
    g.add_argument("--translator", default="bijective",
                   help="bijective or noisy:<delta>")
    g.add_argument("--alpha", type=float, default=1.0,
                   help="reference-row Dirichlet concentration")
    g.add_argument("--u", default=None, help="comma-separated strength vector")
    g.add_argument("--v", default=None, help="comma-separated strength vector")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("eval", help="score a policy on a scenario")
    e.add_argument("--scenario", required=True)
    e.add_argument("--policy", default="ref",
                   help="ref, optimum, or a fitted policy file")
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_eval)

    f = sub.add_parser("fit", help="fit a policy")
    f.add_argument("--scenario", required=True)
    f.add_argument("--method", choices=("dco", "pco-reinforce"), required=True)
    f.add_argument("--step", type=float, default=0.5)
    f.add_argument("--iters", type=int, default=10_000)
    f.add_argument("--tol", type=float, default=1e-9)
    f.add_argument("--rollouts", type=int, default=256)
    f.add_argument("--batch", type=int, default=8)
    f.add_argument("--norm", choices=("l1", "l2"), default="l1")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit)

    v = sub.add_parser("verify", help="run the guarantee checks")
    v.add_argument("--scenario", default=None)
    v.add_argument("--suite", action="store_true",
                   help="run the built-in seeded scenarios")
    v.add_argument("--self-test", dest="self_test", action="store_true",
                   help="corrupt the optimum first; the checks must notice")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("report", help="merge metric files into one CSV")
    r.add_argument("inputs", nargs="+")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
