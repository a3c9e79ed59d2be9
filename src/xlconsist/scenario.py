"""Synthetic multilingual worlds: data model, generation, validation, files.

A scenario bundles the objects every experiment needs: per-language prompt
and candidate ID spaces, an alignment identifying translation-equivalent
prompts and candidates, a reference model per language, translator kernels
per ordered language pair, prompt priors, and the strength configuration.

A language's ID is its position ``m`` in ``spaces``, and the one coordinate
of the alignment columns, strength vectors and kernel maps.  Other IDs are
globally unique integers.  All supports are kept sorted ascending;
correspondence between languages lives exclusively in the alignment
tuples, which the generator shuffles so that nothing downstream can get
away with assuming index-aligned orderings.

Randomness is drawn only through ``Generator.random()`` (the raw uniform
stream), with Dirichlet and permutation sampling implemented locally on
top of it.  This keeps generated scenarios bit-identical across numpy
versions, which the golden-output tests rely on.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from xlconsist.core import LogDist, StochasticKernel, StructuralError

SCHEMA_VERSION = "1"


class ScenarioFormatError(ValueError):
    """A scenario file failed to parse or validate; names the field."""


# ---------------------------------------------------------------------------
# sampling primitives on the raw uniform stream


def _uniform_open(rng) -> float:
    # (0, 1]: avoids log(0) in Box-Muller and inverse-CDF transforms
    return 1.0 - rng.random()


def _standard_normal(rng) -> float:
    u1 = _uniform_open(rng)
    u2 = rng.random()
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def _gamma(rng, shape: float) -> float:
    """Marsaglia-Tsang gamma sampler; shape < 1 handled by the boost trick."""
    if shape < 1.0:
        return _gamma(rng, shape + 1.0) * _uniform_open(rng) ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _standard_normal(rng)
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = _uniform_open(rng)
        if math.log(u) < 0.5 * x * x + d - d * v + d * math.log(v):
            return d * v


def _dirichlet(rng, alpha: float, size: int) -> np.ndarray:
    g = np.array([_gamma(rng, alpha) for _ in range(size)])
    return g / g.sum()


def _shuffled(rng, items: Sequence) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = int(rng.random() * (i + 1))
        out[i], out[j] = out[j], out[i]
    return out


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class LanguageSpace:
    """One language's prompt IDs and per-prompt candidate IDs."""

    lang_id: int
    prompts: tuple[int, ...]
    candidates: Mapping[int, tuple[int, ...]]

    def __post_init__(self):
        object.__setattr__(self, "prompts", tuple(self.prompts))
        object.__setattr__(
            self, "candidates", {int(p): tuple(c) for p, c in self.candidates.items()}
        )

    def __hash__(self):
        return hash((self.lang_id, self.prompts))

    def all_ids(self) -> set[int]:
        ids = set(self.prompts)
        for c in self.candidates.values():
            ids.update(c)
        return ids


@dataclass(frozen=True)
class Alignment:
    """Which prompts and candidates correspond across languages.

    ``prompt_tuples[g][m]`` is group ``g``'s prompt in language index ``m``;
    ``candidate_tuples[g][j][m]`` likewise for its ``j``-th aligned
    candidate.  All pairwise bijections are restrictions of these tuples,
    so the composition of any two derived maps equals the direct map by
    construction.
    """

    prompt_tuples: tuple[tuple[int, ...], ...]
    candidate_tuples: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "prompt_tuples", tuple(tuple(t) for t in self.prompt_tuples)
        )
        object.__setattr__(
            self,
            "candidate_tuples",
            tuple(tuple(tuple(c) for c in grp) for grp in self.candidate_tuples),
        )

    def prompt_map(self, m: int, n: int) -> dict[int, int]:
        return {t[m]: t[n] for t in self.prompt_tuples}

    def group_of_prompt(self, m: int, prompt_id: int) -> int:
        for g, t in enumerate(self.prompt_tuples):
            if t[m] == prompt_id:
                return g
        raise StructuralError(f"prompt {prompt_id} not aligned in language index {m}")

    def candidate_map(self, m: int, n: int, prompt_id_m: int) -> dict[int, int]:
        g = self.group_of_prompt(m, prompt_id_m)
        return {c[m]: c[n] for c in self.candidate_tuples[g]}


@dataclass(frozen=True)
class StrengthConfig:
    """Rank-one strength parameterization: pair (m, n) gets weight u[m]*v[n].

    Positive, finite entries with finite products are enforced; the diagonal
    condition u[m]*v[m] = 1 (which in the bilingual case makes the two cross
    weights multiply to one) is a reported property, not a constructor
    requirement, so that deliberately unbalanced configurations remain
    expressible.
    """

    u: tuple[float, ...]
    v: tuple[float, ...]

    def __post_init__(self):
        u = tuple(float(x) for x in self.u)
        v = tuple(float(x) for x in self.v)
        if len(u) != len(v):
            raise ValueError("u and v must have equal length")
        if not u:
            raise ValueError("strength vectors must be non-empty")
        if not all(0 < x < math.inf for x in u + v):  # also rejects NaN
            raise ValueError("strength entries must be positive and finite")
        if not all(a * b < math.inf for a in u for b in v):
            raise ValueError("strength products u[m]*v[n] must be finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @classmethod
    def ones(cls, n: int) -> "StrengthConfig":
        return cls((1.0,) * n, (1.0,) * n)

    @classmethod
    def bilingual(cls, beta1: float, beta2: float) -> "StrengthConfig":
        """Two-language config with cross weights (beta1, beta2)."""
        return cls((1.0, beta2), (1.0, beta1))

    @property
    def n(self) -> int:
        return len(self.u)

    def beta(self, m: int, n: int) -> float:
        return self.u[m] * self.v[n]

    def is_balanced(self) -> bool:
        return all(abs(self.u[m] * self.v[m] - 1.0) <= 1e-9 for m in range(self.n))


@dataclass(frozen=True)
class Scenario:
    """A complete synthetic world; immutable after construction.  Language
    ``m`` is ``spaces[m]``, whose ID must be ``m``, for ``m`` in ``0..N-1``."""

    spaces: tuple[LanguageSpace, ...]
    alignment: Alignment
    ref: Mapping[int, StochasticKernel]
    translators: Mapping[tuple[int, int], StochasticKernel]
    priors: Mapping[int, LogDist]
    strengths: StrengthConfig
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "spaces", tuple(self.spaces))
        ids = tuple(sp.lang_id for sp in self.spaces)
        if ids != tuple(range(len(ids))):
            raise StructuralError(f"language IDs must be 0..N-1 in order, got {ids}")
        object.__setattr__(self, "ref", dict(self.ref))
        object.__setattr__(
            self, "translators", {(int(a), int(b)): k for (a, b), k in self.translators.items()}
        )
        object.__setattr__(self, "priors", dict(self.priors))

    def __hash__(self):
        return hash((self.spaces, self.seed))

    @property
    def lang_ids(self) -> tuple[int, ...]:
        return tuple(range(len(self.spaces)))

    @property
    def n_langs(self) -> int:
        return len(self.spaces)

    def _lang(self, lang_id: int) -> int:
        if not 0 <= lang_id < len(self.spaces):  # a negative index would wrap around
            raise StructuralError(f"no language with ID {lang_id}")
        return lang_id

    def space(self, lang_id: int) -> LanguageSpace:
        return self.spaces[self._lang(lang_id)]

    def translator(self, from_lang: int, to_lang: int) -> StochasticKernel:
        try:
            return self.translators[(from_lang, to_lang)]
        except KeyError:
            raise StructuralError(f"no translator {from_lang}->{to_lang}") from None

    def beta(self, from_lang: int, to_lang: int) -> float:
        return self.strengths.beta(self._lang(from_lang), self._lang(to_lang))

    def gold_map(self, lang_id: int) -> dict[int, int]:
        """Evaluation convention: the gold answer for each prompt is the
        first candidate of its aligned tuple, which is consistent across
        languages under the candidate maps."""
        m = self._lang(lang_id)
        a = self.alignment
        return {pt[m]: grp[0][m] for pt, grp in zip(a.prompt_tuples, a.candidate_tuples)}


# ---------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class GeneratorConfig:
    n_langs: int = 2
    n_prompts: int = 4
    n_candidates: int = 4
    translator_mode: str = "bijective"  # "bijective" | "noisy"
    noise: float = 0.0  # leakage mass for noisy translators, in [0, 1)
    ref_sharpness: float = 1.0  # Dirichlet concentration; small = confident rows
    u: tuple[float, ...] | None = None
    v: tuple[float, ...] | None = None
    prior_mode: str = "uniform"  # "uniform" | "dirichlet"
    seed: int = 0

    def __post_init__(self):
        if self.n_langs < 1 or self.n_prompts < 1 or self.n_candidates < 1:
            raise ValueError("language, prompt, and candidate counts must be >= 1")
        if self.translator_mode not in ("bijective", "noisy"):
            raise ValueError(f"unknown translator mode {self.translator_mode!r}")
        if not (0.0 <= self.noise < 1.0):
            raise ValueError("noise must lie in [0, 1)")
        if self.translator_mode == "bijective" and self.noise != 0.0:
            raise ValueError("bijective mode takes no noise")
        if not (self.ref_sharpness > 0):
            raise ValueError("ref_sharpness must be positive")
        if self.prior_mode not in ("uniform", "dirichlet"):
            raise ValueError(f"unknown prior mode {self.prior_mode!r}")
        for name, vec in (("u", self.u), ("v", self.v)):
            if vec is not None and len(vec) != self.n_langs:
                raise ValueError(f"{name} must have one entry per language")
        # fail here, not inside generate(), on strengths it could not build
        ones = (1.0,) * self.n_langs
        StrengthConfig(ones if self.u is None else self.u, ones if self.v is None else self.v)


def _translator_row(target_ids: Sequence[int], on: int, noise: float) -> LogDist:
    ids = tuple(sorted(target_ids))
    if noise == 0.0:
        return LogDist.point_mass(ids, on)
    k = len(ids)
    probs = [noise / k + (1.0 - noise) * (1.0 if i == on else 0.0) for i in ids]
    return LogDist.from_probs(ids, probs)


def generate(config: GeneratorConfig) -> Scenario:
    """Build a scenario deterministically from the config.

    Reference rows are symmetric-Dirichlet draws per prompt; translators
    follow the (shuffled) alignment exactly in bijective mode and mix the
    alignment with uniform leakage in noisy mode.  Prompt-level leakage
    spreads over the target language's prompts; candidate-level leakage
    stays inside the aligned candidate set, so round trips remain
    comparable against direct rows.
    """
    rng = np.random.default_rng(config.seed)
    N, P, C = config.n_langs, config.n_prompts, config.n_candidates

    # ID layout: per language, P prompt IDs then P*C candidate IDs
    spaces = []
    next_id = 0
    for m in range(N):
        prompts = tuple(range(next_id, next_id + P))
        next_id += P
        candidates = {}
        for p in prompts:
            candidates[p] = tuple(range(next_id, next_id + C))
            next_id += C
        spaces.append(LanguageSpace(lang_id=m, prompts=prompts, candidates=candidates))

    # alignment: language 0 in natural order, the rest shuffled
    prompt_cols = [list(spaces[0].prompts)]
    for m in range(1, N):
        prompt_cols.append(_shuffled(rng, spaces[m].prompts))
    prompt_tuples = tuple(zip(*prompt_cols))

    candidate_tuples = []
    for g, pt in enumerate(prompt_tuples):
        cols = [list(spaces[0].candidates[pt[0]])]
        for m in range(1, N):
            cols.append(_shuffled(rng, spaces[m].candidates[pt[m]]))
        candidate_tuples.append(tuple(zip(*cols)))
    alignment = Alignment(prompt_tuples, tuple(candidate_tuples))

    # reference rows
    delta = config.noise if config.translator_mode == "noisy" else 0.0
    ref = {}
    for m, sp in enumerate(spaces):
        rows = {}
        for p in sp.prompts:
            probs = _dirichlet(rng, config.ref_sharpness, C)
            rows[p] = LogDist.from_probs(sp.candidates[p], probs)
        ref[m] = StochasticKernel(domain=m, codomain=m, rows=rows)

    # translators for every ordered pair, prompts and candidates alike
    translators = {}
    for m in range(N):
        for n in range(N):
            if m == n:
                continue
            rows = {}
            pmap = alignment.prompt_map(m, n)
            for p_m, p_n in pmap.items():
                rows[p_m] = _translator_row(spaces[n].prompts, p_n, delta)
                cmap = alignment.candidate_map(m, n, p_m)
                targets = spaces[n].candidates[p_n]
                for c_m, c_n in cmap.items():
                    rows[c_m] = _translator_row(targets, c_n, delta)
            translators[(m, n)] = StochasticKernel(domain=m, codomain=n, rows=rows)

    priors = {}
    for m, sp in enumerate(spaces):
        if config.prior_mode == "uniform":
            priors[m] = LogDist.uniform(sp.prompts)
        else:
            priors[m] = LogDist.from_probs(sp.prompts, _dirichlet(rng, 1.0, P))

    u = config.u if config.u is not None else (1.0,) * N
    v = config.v if config.v is not None else (1.0,) * N
    return Scenario(
        spaces=tuple(spaces),
        alignment=alignment,
        ref=ref,
        translators=translators,
        priors=priors,
        strengths=StrengthConfig(u, v),
        seed=config.seed,
    )


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    obj: str
    rule: str
    detail: str = ""

    def __str__(self):
        msg = f"{self.obj}: {self.rule}"
        return f"{msg} ({self.detail})" if self.detail else msg


def validate(s: Scenario) -> list[Violation]:
    """Every structural invariant, one violation per breach; [] when clean."""
    out: list[Violation] = []

    seen: dict[int, int] = {}
    for sp in s.spaces:
        for i in sorted(sp.all_ids()):
            if i in seen and seen[i] != sp.lang_id:
                out.append(Violation(f"language {sp.lang_id}", "id-disjointness",
                                     f"ID {i} also belongs to language {seen[i]}"))
            seen.setdefault(i, sp.lang_id)
        if len(set(sp.prompts)) != len(sp.prompts):
            out.append(Violation(f"language {sp.lang_id}", "unique-prompts"))
        prompt_set = set(sp.prompts)
        for p, cands in sp.candidates.items():
            if not cands:
                out.append(Violation(f"prompt {p}", "non-empty-candidates"))
            if len(set(cands)) != len(cands):
                out.append(Violation(f"prompt {p}", "unique-candidates"))
            if prompt_set & set(cands):
                out.append(Violation(f"prompt {p}", "prompt-candidate-collision"))

    n = s.n_langs
    for g, pt in enumerate(s.alignment.prompt_tuples):
        if len(pt) != n:
            out.append(Violation(f"alignment group {g}", "tuple-width"))
    for m, sp in enumerate(s.spaces):
        col = [pt[m] for pt in s.alignment.prompt_tuples if len(pt) == n]
        if sorted(col) != sorted(sp.prompts):
            out.append(Violation(f"language {sp.lang_id}", "prompt-alignment-bijective"))
    for g, (pt, ct) in enumerate(zip(s.alignment.prompt_tuples, s.alignment.candidate_tuples)):
        if len(pt) != n:
            continue
        for m in range(n):
            col = [c[m] for c in ct]
            expected = s.spaces[m].candidates.get(pt[m], ())
            if sorted(col) != sorted(expected):
                out.append(Violation(f"alignment group {g}", "candidate-alignment-bijective",
                                     f"language index {m}"))

    for m, sp in enumerate(s.spaces):
        kern = s.ref.get(m)
        if kern is None:
            out.append(Violation(f"language {sp.lang_id}", "reference-kernel-present"))
            continue
        for p in sp.prompts:
            if p not in kern.rows:
                out.append(Violation(f"reference {sp.lang_id}", "row-per-prompt", f"prompt {p}"))
            elif kern.rows[p].support != tuple(sorted(sp.candidates[p])):
                out.append(Violation(f"reference {sp.lang_id}", "row-support", f"prompt {p}"))

    for m in range(n):
        for k in range(n):
            if m == k:
                continue
            kern = s.translators.get((m, k))
            if kern is None:
                out.append(Violation(f"pair ({m},{k})", "translator-present"))
                continue
            for i in sorted(s.spaces[m].all_ids() - set(kern.rows)):
                out.append(Violation(f"translator ({m},{k})", "row-per-source-id", f"ID {i}"))

    for m, sp in enumerate(s.spaces):
        prior = s.priors.get(m)
        if prior is None:
            out.append(Violation(f"language {sp.lang_id}", "prior-present"))
        elif not set(prior.support) <= set(sp.prompts):
            out.append(Violation(f"prior {sp.lang_id}", "prior-on-own-prompts"))

    if s.strengths.n != n:
        out.append(Violation("strengths", "length-matches-languages"))

    return out


def cocycle_violations(s: Scenario) -> list[Violation]:
    """For deterministic translators, check pairwise maps compose exactly:
    routing m -> n -> l must equal routing m -> l directly."""
    out: list[Violation] = []

    def det_map(kern: StochasticKernel) -> dict[int, int] | None:
        if not kern.is_deterministic():
            return None
        return {x: row.argmax() for x, row in kern.rows.items()}

    maps = {pair: det_map(k) for pair, k in s.translators.items()}
    if any(v is None for v in maps.values()):
        return [Violation("translators", "cocycle-requires-deterministic")]
    langs = s.lang_ids
    for m in langs:
        for k in langs:
            for l in langs:
                if len({m, k, l}) != 3:
                    continue
                via = {x: maps[(k, l)][y] for x, y in maps[(m, k)].items()}
                if via != maps[(m, l)]:
                    out.append(Violation(f"translators ({m},{k},{l})", "cocycle"))
    return out


# ---------------------------------------------------------------------------
# serialization


def _dist_probs(d: LogDist) -> list[float]:
    return [float(x) for x in d.probs]


def scenario_to_dict(s: Scenario) -> dict:
    langs = []
    for sp in s.spaces:
        langs.append({
            "id": sp.lang_id,
            "prompts": [
                {"id": p, "candidates": list(sp.candidates[p])} for p in sp.prompts
            ],
        })
    doc = {
        "version": SCHEMA_VERSION,
        "seed": s.seed,
        "languages": langs,
        "alignment": {
            "prompt_pairs": [list(t) for t in s.alignment.prompt_tuples],
            "candidate_pairs": [
                [list(c) for c in grp] for grp in s.alignment.candidate_tuples
            ],
        },
        "ref_kernels": [
            {
                "lang": m,
                "rows": [
                    {"prompt": p, "probs": _dist_probs(s.ref[m].rows[p])}
                    for p in s.space(m).prompts
                ],
            }
            for m in s.lang_ids
        ],
        "translators": [
            {
                "from": a,
                "to": b,
                "rows": [
                    {"id": i, "probs": _dist_probs(k.rows[i])} for i in sorted(k.rows)
                ],
            }
            for (a, b), k in sorted(s.translators.items())
        ],
        "priors": [
            {"lang": m, "probs": _dist_probs(s.priors[m])} for m in s.lang_ids
        ],
        "strengths": {"u": list(s.strengths.u), "v": list(s.strengths.v)},
    }
    return doc


def save(s: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=1) + "\n")


def _need(doc, key: str, where: str, check=None):
    """``doc[key]``, passed through ``check(value, where)`` when given."""
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected an object with field {key!r}")
    if key not in doc:
        raise ScenarioFormatError(f"{where}: missing field {key!r}")
    return doc[key] if check is None else check(doc[key], f"{where} {key}")


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{where}: expected a list")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    return value


def _id(value, where: str) -> int:
    try:
        if isinstance(value, bool):  # JSON true and false are not numbers
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ScenarioFormatError(f"{where}: {value!r} is not an integer") from None


def _ids(value, where: str, width: int | None = None) -> tuple[int, ...]:
    ids = tuple(_id(v, where) for v in _list(value, where))
    if width is not None and len(ids) != width:
        raise ScenarioFormatError(f"{where}: {len(ids)} IDs for {width} languages")
    return ids


def _new(key, seen, where: str):
    """``key``, refused if ``seen`` holds it: a second entry never replaces the first."""
    if key in seen:
        raise ScenarioFormatError(f"{where} {key!r} appears twice")
    return key


def _row_dist(support: Sequence[int], probs: list, where: str) -> LogDist:
    if not all(type(x) in (int, float) for x in probs):
        raise ScenarioFormatError(f"{where}: probs must be numbers")
    if len(support) != len(probs):
        raise ScenarioFormatError(f"{where}: {len(probs)} probabilities for {len(support)} ids")
    total = 0.0
    for x in probs:  # in order, as the builtin sum adds floats before Python 3.12
        total += x
    if not abs(total - 1.0) <= 1e-9:  # also rejects NaN
        raise ScenarioFormatError(f"{where}: probabilities sum to {total!r}, not 1")
    try:
        return LogDist.from_probs(tuple(sorted(support)), probs)
    except (ValueError, StructuralError) as err:
        raise ScenarioFormatError(f"{where}: {err}") from err


def scenario_from_dict(doc: dict) -> Scenario:
    version = _need(doc, "version", "document")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(f"unsupported scenario version {version!r}")
    seed = _need(doc, "seed", "document", _id)

    by_id = {}
    for entry in _need(doc, "languages", "document", _list):
        lang = _new(_need(entry, "id", "languages", _id), by_id, "languages id")
        prompts, candidates = [], {}
        for p in _need(entry, "prompts", f"language {lang}", _list):
            pid = _need(p, "id", f"language {lang} prompt", _id)
            prompts.append(pid)
            candidates[pid] = _need(p, "candidates", f"prompt {pid}", _ids)
        by_id[lang] = LanguageSpace(lang, tuple(prompts), candidates)
    n = len(by_id)
    if list(by_id) != list(range(n)):
        raise ScenarioFormatError(f"languages: IDs must be 0..{n - 1} in the order listed, "
                                  f"got {list(by_id)}")
    spaces = tuple(by_id.values())
    # each candidate's prompt, per language; the first prompt listed wins
    owner = [{c: p for p, cs in reversed(sp.candidates.items()) for c in cs} for sp in spaces]

    align = _need(doc, "alignment", "document")
    prompt_tuples = tuple(_ids(t, "alignment prompt_pairs", n)
                          for t in _need(align, "prompt_pairs", "alignment", _list))
    candidate_tuples = tuple(
        tuple(_ids(c, "alignment candidate_pairs", n)
              for c in _list(grp, "alignment candidate_pairs"))
        for grp in _need(align, "candidate_pairs", "alignment", _list)
    )
    if len(candidate_tuples) != len(prompt_tuples):
        raise ScenarioFormatError("alignment: candidate_pairs and prompt_pairs lengths differ")
    alignment = Alignment(prompt_tuples, candidate_tuples)

    ref = {}
    for entry in _need(doc, "ref_kernels", "document", _list):
        m = _new(_need(entry, "lang", "ref_kernels", _id), ref, "ref_kernels language")
        if m not in range(n):
            raise ScenarioFormatError(f"ref_kernels: unknown language {m}")
        rows = {}
        for r in _need(entry, "rows", f"ref_kernels[{m}]", _list):
            p = _new(_need(r, "prompt", "ref row", _id), rows, f"ref_kernels[{m}] prompt")
            sup = spaces[m].candidates.get(p)
            if sup is None:
                raise ScenarioFormatError(f"ref_kernels[{m}]: unknown prompt {p}")
            where = f"ref_kernels[{m}] prompt {p}"
            rows[p] = _row_dist(sup, _need(r, "probs", where, _list), where)
        ref[m] = StochasticKernel(domain=m, codomain=m, rows=rows)

    translators = {}
    for entry in _need(doc, "translators", "document", _list):
        a = _need(entry, "from", "translators", _id)
        b = _need(entry, "to", "translators", _id)
        if a not in range(n) or b not in range(n):
            raise ScenarioFormatError(f"translators: unknown pair ({a},{b})")
        _new((a, b), translators, "translators pair")
        pmap = alignment.prompt_map(a, b)
        rows = {}
        for r in _need(entry, "rows", f"translator ({a},{b})", _list):
            i = _new(_need(r, "id", "translator row", _id), rows, f"translator ({a},{b}) row")
            where = f"translator ({a},{b}) row {i}"
            if i in spaces[a].candidates:  # prompt-level row
                sup: Sequence[int] = spaces[b].prompts
            else:
                p_a = owner[a].get(i)
                if p_a is None:
                    raise ScenarioFormatError(f"{where}: ID not in source language")
                sup = spaces[b].candidates.get(pmap.get(p_a))
                if sup is None:
                    raise ScenarioFormatError(f"{where}: alignment prompt_pairs aligns prompt "
                                              f"{p_a} with no prompt of language {b}")
            rows[i] = _row_dist(sup, _need(r, "probs", where, _list), where)
        translators[(a, b)] = StochasticKernel(domain=a, codomain=b, rows=rows)

    priors = {}
    for entry in _need(doc, "priors", "document", _list):
        m = _new(_need(entry, "lang", "priors", _id), priors, "priors language")
        if m not in range(n):
            raise ScenarioFormatError(f"priors: unknown language {m}")
        priors[m] = _row_dist(spaces[m].prompts, _need(entry, "probs", f"priors[{m}]", _list),
                              f"priors[{m}]")

    st = _need(doc, "strengths", "document")
    u, v = _need(st, "u", "strengths", _list), _need(st, "v", "strengths", _list)
    for name, vec in (("u", u), ("v", v)):
        if not all(type(x) in (int, float) for x in vec):
            raise ScenarioFormatError(f"strengths {name}: entries must be numbers")
    try:
        strengths = StrengthConfig(tuple(u), tuple(v))
    except (TypeError, ValueError) as err:
        raise ScenarioFormatError(f"strengths: {err}") from err

    return Scenario(spaces, alignment, ref, translators, priors, strengths, seed)


def load(path: str | Path) -> Scenario:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioFormatError(f"line {err.lineno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")
    return scenario_from_dict(doc)
