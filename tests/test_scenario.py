"""Scenario generation, validation, and file round-trip tests."""

import dataclasses
import json
import math

import numpy as np
import pytest

from xlconsist.core import (
    LogDist,
    StochasticKernel,
    StructuralError,
    is_invertible_pair,
    round_trip,
)
from xlconsist.scenario import (
    Alignment,
    GeneratorConfig,
    LanguageSpace,
    Scenario,
    ScenarioFormatError,
    StrengthConfig,
    cocycle_violations,
    generate,
    load,
    save,
    scenario_to_dict,
    validate,
    _dirichlet,
    _shuffled,
)


BIJ = GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=7)
NOISY = GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4,
                        translator_mode="noisy", noise=0.3, seed=7)


class TestSamplingPrimitives:
    def test_dirichlet_rows_normalize_and_vary_with_alpha(self):
        rng = np.random.default_rng(0)
        sharp = [_dirichlet(rng, 0.05, 4) for _ in range(200)]
        rng = np.random.default_rng(0)
        flat = [_dirichlet(rng, 50.0, 4) for _ in range(200)]
        for row in sharp + flat:
            assert abs(row.sum() - 1.0) < 1e-12
            assert np.all(row >= 0)
        # small concentration produces confident rows, large produces diffuse ones
        assert np.mean([r.max() for r in sharp]) > 0.9
        assert np.mean([r.max() for r in flat]) < 0.4

    def test_dirichlet_moments(self):
        # mean of each coordinate of Dirichlet(alpha) is 1/k
        rng = np.random.default_rng(42)
        draws = np.array([_dirichlet(rng, 2.0, 3) for _ in range(4000)])
        np.testing.assert_allclose(draws.mean(axis=0), [1 / 3] * 3, atol=0.02)

    def test_shuffle_is_a_permutation(self):
        rng = np.random.default_rng(3)
        items = list(range(10))
        out = _shuffled(rng, items)
        assert sorted(out) == items


class TestStrengthConfig:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            StrengthConfig((1.0, -1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            StrengthConfig((0.0,), (1.0,))
        with pytest.raises(ValueError):
            StrengthConfig((1.0, math.nan), (1.0, 1.0))
        with pytest.raises(ValueError):
            StrengthConfig((1.0,), (math.nan,))
        with pytest.raises(ValueError):
            StrengthConfig((1.0, math.inf), (1.0, 1.0))
        with pytest.raises(ValueError):
            StrengthConfig((1.0, 1e308), (1.0, 1e308))

    def test_balance_detection(self):
        assert StrengthConfig((1.0, 2.0), (1.0, 0.5)).is_balanced()
        assert not StrengthConfig((1.0, 2.0), (2.0, 1.0)).is_balanced()

    def test_bilingual_cross_weights(self):
        st = StrengthConfig.bilingual(0.1, 10.0)
        assert st.beta(0, 1) == pytest.approx(0.1)
        assert st.beta(1, 0) == pytest.approx(10.0)
        assert st.is_balanced()
        unbalanced = StrengthConfig.bilingual(2.0, 2.0)
        assert not unbalanced.is_balanced()


class TestGenerate:
    def test_deterministic_given_seed(self):
        assert generate(BIJ) == generate(BIJ)

    def test_different_seeds_differ(self):
        other = GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=4, seed=8)
        assert generate(BIJ) != generate(other)

    def test_well_formed(self):
        assert validate(generate(BIJ)) == []
        assert validate(generate(NOISY)) == []

    def test_bijective_translators_invert(self):
        s = generate(BIJ)
        assert is_invertible_pair(s.translator(0, 1), s.translator(1, 0), 1e-12)

    def test_noisy_translators_do_not_invert(self):
        s = generate(NOISY)
        assert not is_invertible_pair(s.translator(0, 1), s.translator(1, 0), 1e-6)

    def test_cocycle_for_three_languages(self):
        s = generate(GeneratorConfig(n_langs=3, n_prompts=3, n_candidates=3, seed=11))
        assert cocycle_violations(s) == []

    def test_candidate_alignment_is_shuffled(self):
        # at least one aligned candidate tuple must break index order,
        # otherwise map-forgetting bugs would go unnoticed downstream
        s = generate(GeneratorConfig(n_langs=2, n_prompts=6, n_candidates=6, seed=1))
        broken = 0
        for g, pt in enumerate(s.alignment.prompt_tuples):
            order0 = list(s.space(0).candidates[pt[0]])
            order1 = list(s.space(1).candidates[pt[1]])
            for c in s.alignment.candidate_tuples[g]:
                if order0.index(c[0]) != order1.index(c[1]):
                    broken += 1
        assert broken > 0

    def test_gold_maps_correspond_across_languages(self):
        s = generate(BIJ)
        g0, g1 = s.gold_map(0), s.gold_map(1)
        pmap = s.alignment.prompt_map(0, 1)
        for p0, gold0 in g0.items():
            cmap = s.alignment.candidate_map(0, 1, p0)
            assert g1[pmap[p0]] == cmap[gold0]

    def test_round_trip_composes_on_generated_world(self):
        s = generate(BIJ)
        x = s.space(0).prompts[0]
        out = round_trip(s.translator(0, 1), s.ref[1], s.translator(1, 0), x)
        assert out.support == tuple(sorted(s.space(0).candidates[x]))

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_candidates=0)
        with pytest.raises(ValueError):
            GeneratorConfig(translator_mode="noisy", noise=1.0)
        with pytest.raises(ValueError):
            GeneratorConfig(ref_sharpness=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(translator_mode="telepathy")
        with pytest.raises(ValueError):
            GeneratorConfig(n_langs=2, u=(1.0,))


class TestValidate:
    def test_overlapping_language_ids_flagged(self):
        s = generate(BIJ)
        sp0 = s.spaces[0]
        # rebuild language 1 reusing language 0's IDs
        clash = LanguageSpace(1, sp0.prompts, sp0.candidates)
        bad = Scenario(
            spaces=(sp0, clash),
            alignment=Alignment(
                tuple((p, p) for p in sp0.prompts),
                tuple(tuple((c, c) for c in sp0.candidates[p]) for p in sp0.prompts),
            ),
            ref={0: s.ref[0], 1: s.ref[0]},
            translators={},
            priors={0: s.priors[0], 1: s.priors[0]},
            strengths=s.strengths,
            seed=0,
        )
        rules = {v.rule for v in validate(bad)}
        assert "id-disjointness" in rules

    def test_prior_outside_own_prompts_flagged(self):
        s = generate(BIJ)
        bad_prior = LogDist.uniform(s.space(1).prompts)
        bad = Scenario(s.spaces, s.alignment, s.ref, s.translators,
                       {0: bad_prior, 1: s.priors[1]}, s.strengths, s.seed)
        rules = {v.rule for v in validate(bad)}
        assert "prior-on-own-prompts" in rules

    def test_translator_missing_source_row_flagged(self):
        s = generate(BIJ)
        prompt = s.space(0).prompts[0]
        kern = s.translators[(0, 1)]
        rows = {i: r for i, r in kern.rows.items() if i != prompt}
        bad = dataclasses.replace(
            s, translators={**s.translators, (0, 1): StochasticKernel(0, 1, rows)})
        assert [(v.obj, v.rule, v.detail) for v in validate(bad)] == [
            ("translator (0,1)", "row-per-source-id", f"ID {prompt}")]


class TestLanguagePositions:
    """A language's ID is its position in ``spaces``."""

    @pytest.mark.parametrize("ids", [(1, 0), (0, 2)])
    def test_non_positional_ids_refused(self, ids):
        s = generate(BIJ)
        spaces = tuple(LanguageSpace(i, sp.prompts, sp.candidates)
                       for i, sp in zip(ids, s.spaces))
        with pytest.raises(StructuralError, match="0..N-1"):
            dataclasses.replace(s, spaces=spaces)

    @pytest.mark.parametrize("lang", [-1, 2])
    def test_lookup_outside_the_languages_refused(self, lang):
        # a negative position would wrap around to the last language
        s = generate(BIJ)
        for lookup in (s.space, s.gold_map, lambda m: s.beta(m, 0), lambda m: s.beta(0, m)):
            with pytest.raises(StructuralError, match=f"no language with ID {lang}$"):
                lookup(lang)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        for cfg in (BIJ, NOISY,
                    GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=5, seed=3)):
            s = generate(cfg)
            path = tmp_path / f"s{cfg.n_langs}.json"
            save(s, path)
            assert load(path) == s

    def test_save_is_idempotent(self, tmp_path):
        s = generate(BIJ)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(s, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_unnormalized_row_rejected(self, tmp_path):
        doc = scenario_to_dict(generate(BIJ))
        doc["ref_kernels"][0]["rows"][0]["probs"] = [0.3, 0.3, 0.2, 0.1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="sum"):
            load(path)
        # a NaN sum compares false against any bound; it must still fail
        for key, where in (("ref_kernels", r"ref_kernels\[0\]"),
                           ("translators", r"translator \(0,1\)")):
            bad = scenario_to_dict(generate(BIJ))
            bad[key][0]["rows"][0]["probs"][0] = math.nan
            path.write_text(json.dumps(bad))
            with pytest.raises(ScenarioFormatError, match=where + ".*sum"):
                load(path)

    def test_row_sum_added_in_order(self, tmp_path):
        # compensated summation (the builtin sum from Python 3.12 on) would
        # report 2.0; the file check adds the probabilities one at a time
        doc = scenario_to_dict(generate(BIJ))
        doc["ref_kernels"][0]["rows"][0]["probs"] = [0.7, 0.2, 0.1, 0.7, 0.2, 0.1]
        doc["languages"][0]["prompts"][0]["candidates"] += [98, 99]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="sum to 1.9999999999999998,"):
            load(path)

    def test_unsupported_version_rejected(self, tmp_path):
        doc = scenario_to_dict(generate(BIJ))
        doc["version"] = "2"
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="version"):
            load(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"version": "1",\n  "seed": oops\n}')
        with pytest.raises(ScenarioFormatError, match="line 2"):
            load(path)

    def test_missing_field_named(self, tmp_path):
        doc = scenario_to_dict(generate(BIJ))
        del doc["priors"]
        path = tmp_path / "nofield.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="priors"):
            load(path)

    @pytest.mark.parametrize("field, duplicate", [
        ("languages id 0 appears twice",
         lambda d: d["languages"].append(d["languages"][0])),
        ("ref_kernels language 0 appears twice",
         lambda d: d["ref_kernels"].append(d["ref_kernels"][0])),
        (r"ref_kernels\[0\] prompt \d+ appears twice",
         lambda d: d["ref_kernels"][0]["rows"].append(d["ref_kernels"][0]["rows"][1])),
        (r"translators pair \(0, 1\) appears twice",
         lambda d: d["translators"].append(d["translators"][0])),
        (r"translator \(0,1\) row \d+ appears twice",
         lambda d: d["translators"][0]["rows"].append(d["translators"][0]["rows"][2])),
        ("priors language 1 appears twice", lambda d: d["priors"].append(d["priors"][1])),
    ])
    def test_duplicate_entry_named(self, tmp_path, field, duplicate):
        # a second entry for the same key is an error, never last-one-wins
        doc = scenario_to_dict(generate(BIJ))
        duplicate(doc)
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=field):
            load(path)

    def test_translator_row_follows_the_first_prompt_listing_its_id(self, tmp_path):
        doc = scenario_to_dict(generate(BIJ))
        first, second = doc["languages"][0]["prompts"][:2]
        shared = first["candidates"][0]
        # listed under a second prompt too: the first prompt still owns it
        second["candidates"].append(shared)
        doc["ref_kernels"][0]["rows"][1]["probs"] = [0.2] * 5
        doc["translators"] = [t for t in doc["translators"] if t["from"] == 0]
        path = tmp_path / "shared.json"
        path.write_text(json.dumps(doc))
        s = load(path)
        aligned = s.alignment.prompt_map(0, 1)[first["id"]]
        assert s.translator(0, 1).row(shared).support == s.space(1).candidates[aligned]
        # an ID of no prompt of the source language has no row to load
        doc["translators"][0]["rows"][-1]["id"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match=r"row 999: ID not in source language$"):
            load(path)
        # nor does a candidate whose prompt is aligned with no prompt of the target
        doc = scenario_to_dict(generate(BIJ))
        doc["alignment"]["prompt_pairs"][0][1] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioFormatError, match="aligns prompt 0 with no prompt of "
                                                      "language 1$"):
            load(path)
