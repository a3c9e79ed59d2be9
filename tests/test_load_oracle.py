"""The bulk scenario loader against the per-row one in ``load_oracle``.

``scenario_from_dict`` checks each kernel's rows, and the priors, on one
array and builds the distributions without re-checking them one by one.
It must give every bit the per-row loader gave, in the same order, and
raise the same exception with the same message on every file, the first
error in document order winning.  Worlds are generated from fixed seeds;
broken files come from a fixed, seeded set of mutations of them.
"""

import json
import math
import random
from collections import Counter

import load_oracle as oracle
import pytest

from xlconsist.scenario import GeneratorConfig, generate, scenario_from_dict, scenario_to_dict

WORLDS = [
    GeneratorConfig(n_langs=2, n_prompts=4, n_candidates=6, seed=1),
    GeneratorConfig(n_langs=3, n_prompts=3, n_candidates=4, ref_sharpness=0.3,
                    prior_mode="dirichlet", seed=2),
    GeneratorConfig(n_langs=4, n_prompts=2, n_candidates=3, seed=3),
    GeneratorConfig(n_langs=2, n_prompts=5, n_candidates=4, translator_mode="noisy",
                    noise=0.2, seed=4),
    GeneratorConfig(n_langs=3, n_prompts=2, n_candidates=5, translator_mode="noisy",
                    noise=0.5, prior_mode="dirichlet", seed=5),
    GeneratorConfig(n_langs=4, n_prompts=3, n_candidates=2, translator_mode="noisy",
                    noise=0.05, seed=6),
]


def _dist(d):
    assert d.probs.dtype == d.logp.dtype == float and d.probs.ndim == d.logp.ndim == 1
    assert not d.probs.flags.writeable and not d.logp.flags.writeable
    return d.support, d.probs.tobytes(), d.logp.tobytes()


def _bits(s):
    """Every loaded bit, and the order of every mapping."""
    kernels = [(m, k.domain, k.codomain, [(i, *_dist(d)) for i, d in k.rows.items()])
               for m, k in [*s.ref.items(), *s.translators.items()]]
    priors = [(m, *_dist(d)) for m, d in s.priors.items()]
    return s.spaces, s.alignment, s.strengths, s.seed, kernels, priors


def _outcome(load, doc):
    try:
        s = load(json.loads(json.dumps(doc)))
    except Exception as err:  # noqa: BLE001 - the type and message are compared
        return type(err).__name__, str(err)
    return "loaded", _bits(s)


@pytest.mark.parametrize("config", WORLDS, ids=lambda c: f"{c.n_langs}-{c.translator_mode}")
def test_generated_worlds_load_bit_for_bit(config):
    doc = scenario_to_dict(generate(config))
    got = _outcome(scenario_from_dict, doc)
    assert got[0] == "loaded"
    assert got == _outcome(oracle.scenario_from_dict, doc)


def _paths(node, out):
    """Every (container, key) of the document, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _paths(value, out)
    return out


def _probs_lists(doc):
    return [c[k] for c, k in _paths(doc, []) if k == "probs" and isinstance(c[k], list)
            and c[k] and all(type(x) is float for x in c[k])]


def _in_order(row):
    total = 0.0
    for x in row:
        total += x
    return total


def _mutate(doc, rng):
    """One seeded mutation of ``doc``, in place; returns its kind."""
    paths = _paths(doc, [])
    numbers = [(c, k) for c, k in paths if type(c[k]) in (int, float)]
    ids = [(c, k) for c, k in numbers if type(c[k]) is int]
    rows = _probs_lists(doc)
    lists = [c[k] for c, k in paths if k == "candidates" and isinstance(c[k], list)
             and len(c[k]) > 1]
    entries = [c[k] for c, k in paths if isinstance(c[k], list) and c[k]
               and all(isinstance(e, dict) for e in c[k])]
    kind = rng.choice(["delete", "type", "non-finite", "negative", "duplicate", "boolean",
                       "above-zero", "near-one", "repeat", "repeat", "twice"])
    if kind == "delete":
        container, key = rng.choice(paths)
        del container[key]
    elif kind == "type":
        container, key = rng.choice(paths)
        container[key] = rng.choice(["x", None, [], {}, 1.5, -3, [1, 2]])
    elif kind == "non-finite" and numbers:
        container, key = rng.choice(numbers)
        container[key] = rng.choice([math.nan, math.inf, -math.inf])
    elif kind == "boolean" and numbers:
        container, key = rng.choice(numbers)
        container[key] = rng.choice([True, False])
    elif kind == "duplicate" and len(ids) > 1:
        (container, key), (other, at) = rng.sample(ids, 2)
        container[key] = other[at]
    elif kind == "twice" and entries:  # a row, kernel, language or prior listed again
        listed = rng.choice(entries)
        listed.insert(rng.randrange(len(listed) + 1), json.loads(json.dumps(rng.choice(listed))))
    elif kind == "repeat" and lists:  # a candidate listed twice: a row's support repeats it
        ids = rng.choice(lists)
        i, j = rng.sample(range(len(ids)), 2)
        ids[j] = ids[i]
    elif kind == "negative" and rows:
        row = rng.choice([r for r in rows if len(r) > 1] or rows)
        i, j = rng.sample(range(len(row)), 2) if len(row) > 1 else (0, 0)
        shift = rng.choice([0.5, 1.5])
        row[i] += shift
        row[j] -= shift
    elif kind == "above-zero" and rows:
        row = rng.choice(rows)
        row[:] = [1.0 + rng.choice([5e-10, 2e-12, 5e-13])] + [0.0] * (len(row) - 1)
    elif kind == "near-one" and rows:
        # the last sums inside the file's 1e-9 bound: just below 1, a row the
        # in-order sum accepts can fail the normalization check of its logs
        row = rng.choice([r for r in rows if sum(x > 0 for x in r) > 1] or rows)
        side = rng.choice([-1.0, 1.0])
        row[:] = [x * (1.0 + side * 1e-9) for x in row]
        top, inside = row.index(max(row)), lambda: abs(_in_order(row) - 1.0) <= 1e-9
        for toward in (-side, side):  # back inside if the scaling overshot, then out to the edge
            for _ in range(64):
                if inside() == (toward == side):
                    row[top] = math.nextafter(row[top], toward * math.inf)
            if not inside():
                row[top] = math.nextafter(row[top], -side * math.inf)
    return kind


MUTATION_SEEDS = range(400)


def test_mutated_files_raise_what_the_per_row_loader_raises():
    seen = Counter()
    for seed in MUTATION_SEEDS:
        rng = random.Random(seed)
        doc = scenario_to_dict(generate(WORLDS[seed % len(WORLDS)]))
        kinds = [_mutate(doc, rng) for _ in range(rng.choice([1, 1, 2, 3]))]
        want = _outcome(oracle.scenario_from_dict, doc)
        assert _outcome(scenario_from_dict, doc) == want, (seed, kinds)
        seen[want[1].split(": ", 1)[-1] if want[0] != "loaded" else "loaded"] += 1
    # the set reaches every check of the bulk path, and loads some files
    for message in ("loaded", "negative probability", "log-probability above 0"):
        assert seen[message] >= 10, (message, seen)
    for part in ("support must be sorted", "not normalized", "appears twice", "sum to",
                 "is not an integer"):
        assert sum(n for m, n in seen.items() if part in m) >= 3, (part, seen)


def test_a_row_error_wins_over_every_later_schema_error():
    """A row's own error, then a schema error anywhere after it in the file:
    the row's error is raised first, also across kernels and past the priors
    into the strengths, which the loader reads after the last bulk check."""
    doc = scenario_to_dict(generate(WORLDS[0]))
    rng = random.Random(0)
    rows = _probs_lists(doc)
    seen = Counter()
    for r in sorted({0, len(rows) - 1, *rng.sample(range(len(rows)), 10)}):
        copy = json.loads(json.dumps(doc))
        row = _probs_lists(copy)[r]
        row[0] += 1.5
        row[-1] -= 1.5
        paths = _paths(copy, [])
        after = [i for i, (c, k) in enumerate(paths) if c[k] is row][0] + 1
        later = [i for i in range(after, len(paths)) if paths[i][1] != "probs"]
        strengths = [i for i, (c, k) in enumerate(paths) if k in ("u", "v")]
        for i in sorted({*strengths, *rng.sample(later, min(15, len(later)))}):
            case = json.loads(json.dumps(copy))
            container, key = _paths(case, [])[i]
            container[key] = "x"
            want = _outcome(oracle.scenario_from_dict, case)
            assert _outcome(scenario_from_dict, case) == want, (r, i)
            seen[want[1].endswith("negative probability")] += 1
    assert seen[True] >= 100, seen


def test_kernels_and_priors_without_rows_load_as_before():
    doc = scenario_to_dict(generate(WORLDS[1]))
    doc["ref_kernels"][1]["rows"], doc["translators"][2]["rows"], doc["priors"] = [], [], []
    got = _outcome(scenario_from_dict, doc)
    assert got == _outcome(oracle.scenario_from_dict, doc)
    assert got[0] == "loaded"
