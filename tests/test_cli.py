"""Command-line interface: exit codes, files, manifests, determinism."""

import csv
import json
import math

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

    def test_mixed_schema_versions_exit_one(self, bench, tmp_path):
        m = self._metrics(bench, tmp_path, "m.json", "ref")
        doc = json.loads(m.read_text())
        doc["version"] = "2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("report", m, bad, "--out", tmp_path / "r.csv") == 1
