"""Command-line interface: exit codes, files, manifests, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xlconsist.cli import main
from xlconsist.core import is_invertible_pair
from xlconsist.scenario import load


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def bench(tmp_path):
    path = tmp_path / "bench.json"
    assert run("gen", "--langs", 2, "--prompts", 4, "--cands", 4,
               "--translator", "bijective", "--seed", 7, "--out", path) == 0
    return path


class TestGen:
    def test_writes_loadable_scenario_and_manifest(self, bench, tmp_path):
        s = load(bench)
        assert s.n_langs == 2
        manifest = json.loads((tmp_path / "bench.json.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 7
        assert manifest["outputs"] == [str(bench)]

    def test_noisy_translators_fail_invertibility(self, tmp_path):
        path = tmp_path / "noisy.json"
        assert run("gen", "--translator", "noisy:0.2", "--seed", 3, "--out", path) == 0
        s = load(path)
        assert not is_invertible_pair(s.translator(0, 1), s.translator(1, 0), 1e-6)

    def test_zero_candidates_exits_one(self, tmp_path):
        assert run("gen", "--cands", 0, "--out", tmp_path / "x.json") == 1
        for u, v in (("1,-1", "1,1"), ("1,inf", "1,1"), ("1,1e308", "1,1e308")):
            assert run("gen", "--u", u, "--v", v, "--out", tmp_path / "x.json") == 1

    def test_bad_translator_spec_exits_one(self, tmp_path):
        assert run("gen", "--translator", "noisy:lots", "--out", tmp_path / "x.json") == 1

    def test_identical_seeds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("gen", "--seed", 5, "--out", a)
        run("gen", "--seed", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestFit:
    def test_dco_converges_and_records_offline_trace(self, bench, tmp_path):
        out = tmp_path / "policy.json"
        assert run("fit", "--scenario", bench, "--method", "dco", "--out", out) == 0
        with (tmp_path / "policy.json.trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["samples"] == "0" for r in rows)
        assert float(rows[-1]["tv_to_optimum"]) <= 1e-6
        doc = json.loads(out.read_text())
        assert doc["version"] == "1"

    def test_reinforce_exits_zero(self, bench, tmp_path):
        out = tmp_path / "rl.json"
        assert run("fit", "--scenario", bench, "--method", "pco-reinforce",
                   "--step", 0.15, "--iters", 300, "--rollouts", 64,
                   "--batch", 8, "--seed", 2, "--out", out) == 0
        with (tmp_path / "rl.json.trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[-1]["samples"]) == len(rows) * 8 * 64

    def test_zero_step_exits_one(self, bench, tmp_path):
        assert run("fit", "--scenario", bench, "--method", "dco",
                   "--step", 0, "--out", tmp_path / "p.json") == 1

    def test_exhausted_budget_exits_two(self, bench, tmp_path, capsys):
        assert run("fit", "--scenario", bench, "--method", "dco",
                   "--iters", 1, "--out", tmp_path / "p.json") == 2
        assert "convergence failure" in capsys.readouterr().err

    def test_fit_is_deterministic(self, bench, tmp_path):
        a, b = tmp_path / "p1.json", tmp_path / "p2.json"
        run("fit", "--scenario", bench, "--method", "dco", "--out", a)
        run("fit", "--scenario", bench, "--method", "dco", "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_optimum_on_bijective_scenario_scores_perfect_clc(self, bench, tmp_path):
        out = tmp_path / "m.json"
        assert run("eval", "--scenario", bench, "--policy", "optimum", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["rankc"]["clc_all"] == 1.0
        assert all(entry["satisfied"] for entry in doc["consistency"])

    def test_ref_on_noisy_scenario_scores_below_one(self, tmp_path):
        sc = tmp_path / "noisy.json"
        run("gen", "--translator", "noisy:0.3", "--seed", 11, "--out", sc)
        out = tmp_path / "m.json"
        assert run("eval", "--scenario", sc, "--policy", "ref", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["rankc"]["clc_all"] < 1.0

    def test_fitted_policy_file_round_trips(self, bench, tmp_path):
        pol = tmp_path / "policy.json"
        run("fit", "--scenario", bench, "--method", "dco", "--out", pol)
        out = tmp_path / "m.json"
        assert run("eval", "--scenario", bench, "--policy", pol, "--out", out) == 0
        assert json.loads(out.read_text())["rankc"]["clc_all"] == 1.0

    def test_csv_format(self, bench, tmp_path):
        out = tmp_path / "m.csv"
        assert run("eval", "--scenario", bench, "--policy", "ref",
                   "--format", "csv", "--out", out) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        metrics = {r["metric"] for r in rows}
        assert {"clc_all", "accuracy", "rankc"} <= metrics

    def test_unreadable_policy_exits_one(self, bench, tmp_path):
        assert run("eval", "--scenario", bench, "--policy",
                   tmp_path / "missing.json", "--out", tmp_path / "m.json") == 1

    def test_malformed_policy_exits_one(self, bench, tmp_path, capsys):
        # each case names the field; none may end in a traceback, or load
        # and fail later in the consistency search
        pol = tmp_path / "policy.json"
        run("fit", "--scenario", bench, "--method", "dco", "--out", pol)
        good = json.loads(pol.read_text())

        def without(key):
            doc = json.loads(json.dumps(good))
            del doc["rows"][0][key]
            return doc

        def with_row(**fields):
            doc = json.loads(json.dumps(good))
            doc["rows"][0].update(fields)
            return doc

        cases = [
            ("version", good["rows"]),
            ("prompt", without("prompt")),
            ("support", without("support")),
            ("probs", without("probs")),
            ("support", with_row(support=[999], probs=[1.0])),
            ("support", with_row(support=good["rows"][0]["support"][::-1])),
            ("lang", with_row(lang="0")),
            ("rows", {"version": "1", "rows": 5}),
            ("prompt not in the scenario", with_row(prompt=12345)),
            ("probabilities sum", with_row(probs=[0.5] * len(good["rows"][0]["probs"]))),
            ("prompt 0 appears twice",
             {"version": "1", "rows": good["rows"] + good["rows"][:1]}),
        ]
        bad = tmp_path / "bad.json"
        for field, doc in cases:
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("eval", "--scenario", bench, "--policy", bad,
                       "--out", tmp_path / "m.json") == 1, field
            assert field in capsys.readouterr().err, field

    def test_non_positional_languages_exit_one(self, tmp_path, capsys):
        # every kernel and prior is present: the error names the language
        # numbering, not the kernels it seems to lack
        world = tmp_path / "world.json"
        assert run("gen", "--langs", 2, "--prompts", 2, "--cands", 2,
                   "--translator", "bijective", "--seed", 3, "--out", world) == 0

        def renumbered(doc):
            for entry in doc["languages"]:
                entry["id"] += 1
            for entry in doc["ref_kernels"] + doc["priors"]:
                entry["lang"] += 1
            for entry in doc["translators"]:
                entry["from"] += 1
                entry["to"] += 1

        bad = tmp_path / "bad.json"
        for edit in (renumbered, lambda doc: doc["languages"].reverse()):
            doc = json.loads(world.read_text())
            edit(doc)
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("eval", "--scenario", bad, "--policy", "ref",
                       "--out", tmp_path / "m.json") == 1
            err = capsys.readouterr().err
            assert "languages: IDs must be 0..1 in the order listed" in err
            assert "kernel-present" not in err and "row-per" not in err

    @pytest.mark.parametrize("field, edit", [
        ("languages id", lambda doc: doc["languages"][0].update(id=False)),
        ("document seed", lambda doc: doc.update(seed=True)),
        ("strengths u", lambda doc: doc["strengths"].update(u=[True, True])),
    ], ids=["id", "seed", "strength"])
    def test_boolean_for_a_number_exits_one(self, bench, tmp_path, capsys, field, edit):
        # JSON true and false are not 0 and 1: each loaded silently as one
        doc = json.loads(bench.read_text())
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--scenario", bad, "--policy", "ref",
                   "--out", tmp_path / "m.json") == 1
        assert f"{field}:" in capsys.readouterr().err

    def test_invalid_scenario_exits_one(self, bench, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("eval", "--scenario", bad, "--policy", "ref",
                   "--out", tmp_path / "m.json") == 1

        # NaN fails every range check it meets; each must still be caught
        # and the field named, never end in a traceback
        def put(doc, value, *path):
            *head, last = path
            for key in head:
                doc = doc[key]
            doc[last] = value

        nan_cases = {
            "ref_kernels": ("ref_kernels", 0, "rows", 0, "probs", 0),
            "translator": ("translators", 0, "rows", 0, "probs", 0),
            "priors": ("priors", 0, "probs", 0),
            "strengths": ("strengths", "u", 1),
        }
        for field, path in nan_cases.items():
            doc = json.loads(bench.read_text())
            put(doc, math.nan, *path)
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("eval", "--scenario", bad, "--policy", "optimum",
                       "--out", tmp_path / "m.json") == 1, field
            assert field in capsys.readouterr().err, field

        # an infinite strength, or finite ones whose product overflows
        for u1, v1 in ((math.inf, 1.0), (1e308, 1e308)):
            doc = json.loads(bench.read_text())
            doc["strengths"]["u"][1], doc["strengths"]["v"][1] = u1, v1
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("eval", "--scenario", bad, "--policy", "optimum",
                       "--out", tmp_path / "m.json") == 1, u1
            assert "strengths" in capsys.readouterr().err, u1

        # wrong JSON types, a short or unknown alignment tuple, and a
        # translator without the row for a source ID
        broken = [
            ("probs", "abc", "ref_kernels", 0, "rows", 0, "probs"),
            ("probs", ["a", "b", "c", "d"], "ref_kernels", 0, "rows", 0, "probs"),
            ("probs", None, "translators", 0, "rows", 0, "probs"),
            ("probs", None, "priors", 0, "probs"),
            ("languages", 5, "languages"),
            ("languages", 5, "languages", 0),
            ("prompt id", "x", "languages", 0, "prompts", 0, "id"),
            ("prompt id", 0.5, "languages", 0, "prompts", 0, "id"),
            ("seed", "abc", "seed"),
            ("prompt_pairs", [0], "alignment", "prompt_pairs", 0),
            ("prompt_pairs", 999, "alignment", "prompt_pairs", 0, 1),
            ("candidate_pairs", [5], "alignment", "candidate_pairs", 0, 0),
        ]
        for field, value, *path in broken:
            doc = json.loads(bench.read_text())
            put(doc, value, *path)
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("eval", "--scenario", bad, "--policy", "ref",
                       "--out", tmp_path / "m.json") == 1, (field, value)
            assert field in capsys.readouterr().err, (field, value)
        doc = json.loads(bench.read_text())
        del doc["translators"][0]["rows"][0]
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--scenario", bad, "--policy", "ref",
                   "--out", tmp_path / "m.json") == 1
        assert "row-per-source-id" in capsys.readouterr().err
        # a second row for one prompt is refused, not taken last-one-wins
        doc = json.loads(bench.read_text())
        doc["ref_kernels"][0]["rows"].append(doc["ref_kernels"][0]["rows"][0])
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--scenario", bad, "--policy", "ref",
                   "--out", tmp_path / "m.json") == 1
        assert "ref_kernels[0] prompt 0 appears twice" in capsys.readouterr().err


class TestVerify:
    def test_suite_passes(self, capsys):
        assert run("verify", "--suite") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS" in out

    def test_unbalanced_scenario_skips_consistency(self, tmp_path, capsys):
        sc = tmp_path / "unbal.json"
        run("gen", "--prompts", 3, "--cands", 3, "--u", "1,2", "--v", "2,1",
            "--seed", 1, "--out", sc)
        assert run("verify", "--scenario", sc) == 0
        out = capsys.readouterr().out
        assert "optimum-consistency: SKIPPED" in out
        assert "optimum-minimality: PASS" in out

    def test_self_test_detects_corruption(self, bench, capsys):
        assert run("verify", "--scenario", bench, "--self-test") == 2
        out = capsys.readouterr().out
        assert "optimum-minimality: FAIL" in out

    def test_suite_self_test_prints_plain_floats(self, capsys):
        assert run("verify", "--suite", "--self-test") == 2
        out = capsys.readouterr().out
        assert "optimum-minimality: FAIL observed=-0.00" in out
        assert "np.float64(" not in out

    def test_invalid_scenario_exits_one(self, bench, tmp_path, capsys):
        # verify validates its file as eval and fit do
        bad = tmp_path / "bad.json"
        for rule, drop in (("prior-present", lambda doc: doc["priors"].pop()),
                           ("reference-kernel-present", lambda doc: doc["ref_kernels"].pop()),
                           ("row-per-prompt", lambda doc: doc["ref_kernels"][0]["rows"].pop())):
            doc = json.loads(bench.read_text())
            drop(doc)
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("verify", "--scenario", bad) == 1, rule
            assert rule in capsys.readouterr().err, rule

    def test_without_target_exits_one(self):
        assert run("verify") == 1

    def test_one_candidate_scenario_returns(self, tmp_path):
        # minimality once drew forever for a row with nothing to perturb,
        # so the pair runs in a child process that a timeout can stop
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        sc = tmp_path / "one.json"
        for argv in (["gen", "--cands", "1", "--out", sc], ["verify", "--scenario", sc]):
            done = subprocess.run([sys.executable, "-m", "xlconsist.cli", *map(str, argv)],
                                  env=env, capture_output=True, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
        assert "multi-language-minimality: SKIPPED (no row has two candidates to perturb)" \
            in done.stdout


class TestReport:
    def _metrics(self, bench, tmp_path, name, policy):
        out = tmp_path / name
        run("eval", "--scenario", bench, "--policy", policy, "--out", out)
        return out

    def test_single_input(self, bench, tmp_path):
        m = self._metrics(bench, tmp_path, "m.json", "ref")
        out = tmp_path / "report.csv"
        assert run("report", m, "--out", out) == 0
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["scenario"] == "bench.json" for r in rows)
        assert any(r["metric"] == "clc_all" for r in rows)

    def test_two_policies_two_rows_per_metric(self, bench, tmp_path):
        m1 = self._metrics(bench, tmp_path, "m1.json", "ref")
        m2 = self._metrics(bench, tmp_path, "m2.json", "optimum")
        out = tmp_path / "report.csv"
        assert run("report", m1, m2, "--out", out) == 0
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["metric"] == "clc_all"]
        assert len(rows) == 2
        assert {r["policy"] for r in rows} == {"ref", "optimum"}

    def test_malformed_metrics_exit_one(self, bench, tmp_path, capsys):
        good = json.loads(self._metrics(bench, tmp_path, "m.json", "ref").read_text())

        def edited(edit):
            doc = json.loads(json.dumps(good))
            edit(doc)
            return doc

        cases = [
            ("rankc", {"version": "1"}),
            ("version", [good]),
            ("clc_all", edited(lambda d: d["rankc"].pop("clc_all"))),
            ("langs", edited(lambda d: d["rankc"]["pairs"].__setitem__(0, 3))),
            ("per_prompt", edited(lambda d: d["rankc"]["pairs"][0].pop("per_prompt"))),
            ("accuracy", edited(lambda d: d.pop("accuracy"))),
            ("entropy", edited(lambda d: d.__setitem__("entropy", []))),
            ("std", edited(lambda d: d["entropy"]["0"].__setitem__("correct", {"mean": 1.0}))),
        ]
        bad = tmp_path / "bad.json"
        for field, doc in cases:
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert run("report", bad, "--out", tmp_path / "r.csv") == 1, field
            assert field in capsys.readouterr().err, field

    def test_mixed_schema_versions_exit_one(self, bench, tmp_path):
        m = self._metrics(bench, tmp_path, "m.json", "ref")
        doc = json.loads(m.read_text())
        doc["version"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("report", m, bad, "--out", tmp_path / "r.csv") == 1
