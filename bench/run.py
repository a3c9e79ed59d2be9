#!/usr/bin/env python3
"""Benchmark for xlconsist: one closed-loop client runs one workload.

    python3 bench/run.py --workload eval-sparse --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  See bench/README.md.
"""

import os
import time

# One client on one thread: BLAS and OpenMP pools are pinned before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
import numpy  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5

# counts that must come out identical on every run of one seed
EXACT_REPEAT = ("core.pushforward_terms", "objectives.mc_samples", "optim.dco_iterations",
                "optim.reinforce_samples", "metrics.consistency_reports")

END_TO_END = (("setup_s", "s"), ("items_per_s", "1/s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("error_rate", "ratio"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("scenario.load.busy_ms", "ms"), ("scenario.validate.busy_ms", "ms"),
    ("scenario.load.calls", "count"), ("scenario.bytes_read", "bytes"),
    ("objectives.optimum.busy_ms", "ms"), ("objectives.optimum_mc.busy_ms", "ms"),
    ("objectives.mc_samples", "count"), ("objectives.floored_rows", "count"),
    ("objectives.mc_tv_max", "tv"),
    ("core.pushforward_terms", "count"), ("core.mean_support", "ids"),
    ("metrics.evaluate.busy_ms", "ms"), ("metrics.evaluate.calls", "count"),
    ("metrics.consistency_reports", "count"), ("metrics.consistency_satisfied_ratio", "ratio"),
    ("metrics.support_extended_ratio", "ratio"), ("metrics.to_json.busy_ms", "ms"),
    ("optim.fit_dco.busy_ms", "ms"), ("optim.dco_iterations", "count"),
    ("optim.dco_samples", "count"), ("optim.fit_reinforce.busy_ms", "ms"),
    ("optim.reinforce_iterations", "count"), ("optim.reinforce_samples", "count"),
    ("optim.rollouts_per_s", "1/s"), ("optim.reinforce_tv_max", "tv"),
    ("propositions.check.busy_ms", "ms"), ("propositions.check.failed", "count"),
    ("item.self_ms", "ms"), ("trace.overhead_pct", "%"),
)


class SetupError(Exception):
    """The checkout cannot be benchmarked; nothing was measured."""


def import_package():
    """Import the package from this checkout's ``src``, never another copy."""
    if not (SRC / "xlconsist" / "__init__.py").is_file():
        raise SetupError(f"no xlconsist package under {SRC}")
    sys.path.insert(0, str(SRC))
    import xlconsist

    if Path(xlconsist.__file__).resolve().parent != SRC / "xlconsist":
        raise SetupError(f"imported xlconsist from {xlconsist.__file__}, not {SRC}")


def import_in_fresh_interpreter() -> None:
    """Start an interpreter that imports what the benchmark imports."""
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import harness, workloads"
    child = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH)],
                           capture_output=True, text=True, timeout=120)
    if child.returncode != 0:
        raise SetupError(f"import in a fresh interpreter failed: {child.stderr.strip()}")


def git_commit() -> str | None:
    """HEAD of the checkout; None when the checkout is not a git repository
    (an enclosing repository's HEAD would say nothing about this one)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def source_digest() -> str:
    """Hash of the package's and the benchmark's sources, so that runs of
    different code never share an exact-repeat record."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def sum_counts(per_item: list[dict]) -> dict:
    total: dict[str, float] = {}
    for counts in per_item:
        for key, value in counts.items():
            if key.endswith("_max"):
                total[key] = max(total.get(key, value), value)
            else:
                total[key] = total.get(key, 0) + value
    return total


def check_repeat(workload: str, seed: int, counts: dict) -> list[str]:
    """Compare the exact-repeat counts with those an earlier run of the same
    seed and the same sources recorded in this checkout, recording them if
    none did."""
    mine = {key: counts.get(key, 0) for key in EXACT_REPEAT}
    record = OUT / "counts" / f"{source_digest()}-{workload}-seed{seed}.json"
    if record.is_file():
        earlier = json.loads(record.read_text())
        return [f"{key}: {mine[key]} here, {earlier.get(key)} in an earlier run"
                for key in EXACT_REPEAT if mine[key] != earlier.get(key)]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(mine, sort_keys=True) + "\n")
    return []


def layer_metrics(tracer, scales: dict, counts: dict, traced, untraced) -> dict:
    """Per-layer numbers per traced pass; span times at reference speed."""
    passes = traced.passes
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in tracer.spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration * scales[s.item]
        calls[s.name] = calls.get(s.name, 0) + 1
    self_t = harness.self_times(tracer.spans)
    item_self = sum(self_t[s.span_id] * scales[s.item]
                    for s in tracer.spans if s.name == "item")

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    def items_per_s(loop):
        return loop.attempted / sum(loop.scaled)

    rf_busy_s = busy.get("optim.fit_reinforce", 0.0) / passes
    values = {
        "scenario.load.calls": calls.get("scenario.load", 0) / passes,
        "core.mean_support": ratio("core.support_sum", "core.rows"),
        "metrics.evaluate.calls": calls.get("metrics.evaluate", 0) / passes,
        "metrics.consistency_satisfied_ratio": ratio("metrics.optimum_satisfied",
                                                     "metrics.optimum_reports"),
        "metrics.support_extended_ratio": ratio("metrics.support_extended",
                                                "metrics.consistency_reports"),
        "optim.rollouts_per_s": (counts.get("optim.reinforce_samples", 0) / rf_busy_s
                                 if rf_busy_s else 0.0),
        "propositions.check.failed": traced.gate_failed + untraced.gate_failed,
        "item.self_ms": item_self * 1e3 / passes,
        "trace.overhead_pct": 100.0 * (items_per_s(untraced) / items_per_s(traced) - 1.0),
    }
    for name, _ in PER_LAYER:
        if name.endswith(".busy_ms"):
            values[name] = busy.get(name[: -len(".busy_ms")], 0.0) * 1e3 / passes
        elif name not in values:
            values[name] = counts.get(name, 0)
    return values


def traced_run(runner, workload, seed: int, seconds: float):
    """Alternate untraced and traced passes over the pool until their
    reference-speed time reaches ``seconds``; per-layer numbers are per
    traced pass, and each pass must repeat the first one's counts."""
    tracer = harness.Tracer()
    untraced, traced = harness.LoopResult(), harness.LoopResult()
    first_counts = None
    problems = []
    wall_end = time.perf_counter() + harness.WALL_CAP * seconds
    while traced.passes == 0 or (sum(untraced.scaled) + sum(traced.scaled) < seconds
                                 and time.perf_counter() < wall_end):
        runner.run_pass(harness.NULL_TRACER, untraced)
        per_item: list[dict] = []
        runner.run_pass(tracer, traced,
                        on_output=lambda case, out: per_item.append(workload.counts(case, out)))
        counts = sum_counts(per_item)
        if first_counts is None:
            first_counts = counts
        elif any(counts.get(k) != first_counts.get(k) for k in EXACT_REPEAT):
            problems.append(f"exact-repeat counts changed between passes: {counts}")
    problems += check_repeat(workload.name, seed, first_counts)
    metrics = layer_metrics(tracer, runner.scales, first_counts, traced, untraced)
    with open(OUT / f"spans-{workload.name}-seed{seed}.jsonl", "w") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({**s.__dict__, "scale": runner.scales[s.item]}) + "\n")
    return untraced, traced, metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("eval-sparse", "eval-dense", "race"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        import_package()
        import workloads

        harness.calibration_work()  # the first call pays numpy's one-time costs
        # set-up is repeated and its median reported: interpreter start and
        # imports in fresh processes, then the pool builds below
        import_s = [harness.at_reference_speed(import_in_fresh_interpreter)[1]
                    for _ in range(SETUP_REPEATS)]
    except (SetupError, ImportError, subprocess.TimeoutExpired) as err:
        print(f"cannot benchmark this checkout: {err}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            cases, seconds = harness.at_reference_speed(
                lambda: workload.build(args.seed, workdir))
            build_s.append(seconds)
        setup_s = statistics.median(import_s) + statistics.median(build_s)

        runner = harness.ItemRunner(workload, cases)
        problems = []
        if args.trace:
            untraced, traced, metrics, problems = traced_run(
                runner, workload, args.seed, args.seconds)
            loops = (untraced, traced)
            units = dict(PER_LAYER)
        else:
            loop = runner.run_for(args.seconds)
            loops = (loop,)
            metrics = harness.latency_metrics(loop)
            tail_pct = metrics.pop("tail_percentile")
            metrics["setup_s"] = setup_s
            metrics["error_rate"] = harness.error_rate(loop)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
        attempted = sum(x.attempted for x in loops)
        failed = sum(x.failed for x in loops)

        self_test = workloads.gate_self_test(workload, cases[0])
        if not self_test:
            problems.append("gate self-test: the corrupted optimum passed the gate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems:
        print(problem, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]:14.6g} {unit}")
    info = {
        "workload": workload.name,
        "environment": environment(args.seed),
        "attempted": attempted,
        "failed": failed,
        "observed_error_rate": failed / attempted,
        "gate_self_test_failed_corrupted_item": bool(self_test),
        "setup": {"import_s": import_s, "build_s": build_s},
    }
    if args.trace:
        info["passes"] = {"untraced": untraced.passes, "traced": traced.passes,
                          "items_per_pass": len(cases)}
    else:
        info["samples"] = loop.attempted
        info["tail_percentile"] = tail_pct
        wall = harness.LoopResult(loop.latencies, [1.0] * loop.attempted)
        info["wall_clock"] = {k: v for k, v in harness.latency_metrics(wall).items()
                              if k != "tail_percentile"}
        info["scale_median"] = statistics.median(loop.scales)
    print(json.dumps(info, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
