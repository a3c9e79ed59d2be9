"""The per-row scenario loader, kept as the oracle for the bulk one.

``_row_dist`` and ``scenario_from_dict`` are the former bodies of their
``xlconsist.scenario`` namesakes, unchanged: every row becomes a
``LogDist`` through ``from_probs`` and ``__post_init__`` as soon as its
schema checks pass, so the first error in document order is raised.
``tests/test_load_oracle.py`` asserts that the bulk loader gives the same
bits, in the same order, and raises the same errors.
"""

from __future__ import annotations

from typing import Sequence

from xlconsist.core import LogDist, StochasticKernel, StructuralError
from xlconsist.scenario import (
    SCHEMA_VERSION,
    Alignment,
    LanguageSpace,
    Scenario,
    ScenarioFormatError,
    StrengthConfig,
    _id,
    _ids,
    _list,
    _need,
    _new,
)


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
