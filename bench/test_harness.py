"""Tests of the benchmark's own helpers.

    python -m pytest -q bench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from harness import Span, Tracer, error_rate_upper, nearest_rank, self_times, tail_percentile  # noqa: E402


class TestTailPercentile:
    def test_p90_at_100_items(self):
        assert tail_percentile(100) == 90

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 2000):
            def beyond(pct):
                return n - math.ceil(pct * n / 100)

            pct = tail_percentile(n)
            assert beyond(pct) >= 10, n
            assert pct == 99 or beyond(pct + 1) < 10, n

    def test_value_has_ten_samples_above_it(self):
        values = [float(i) for i in range(1, 101)]
        assert nearest_rank(values, tail_percentile(100)) == 90.0
        assert sum(v > 90.0 for v in values) == 10

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_too_few_items_rejected(self, n):
        with pytest.raises(ValueError):
            tail_percentile(n)


class TestSelfTime:
    def test_sequential_children_subtracted(self):
        spans = [Span(0, None, 0, "item", 0.0, 10.0),
                 Span(1, 0, 0, "a", 1.0, 3.0),
                 Span(2, 0, 0, "b", 4.0, 6.5)]
        assert self_times(spans)[0] == pytest.approx(5.5)
        assert self_times(spans)[1] == pytest.approx(2.0)

    def test_overlap_and_overhang_counted_once(self):
        spans = [Span(0, None, 0, "item", 0.0, 10.0),
                 Span(1, 0, 0, "a", 1.0, 5.0),
                 Span(2, 0, 0, "b", 3.0, 7.0),
                 Span(3, 0, 0, "c", 9.0, 12.0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [Span(0, None, 0, "item", 0.0, 10.0),
                 Span(1, 0, 0, "a", 2.0, 8.0),
                 Span(2, 1, 0, "a.inner", 3.0, 4.0)]
        times = self_times(spans)
        assert times[0] == pytest.approx(4.0)
        assert times[1] == pytest.approx(5.0)

    def test_tracer_links_nested_spans(self):
        tracer = Tracer()
        tracer.item = 7
        with tracer.span("item"):
            with tracer.span("child"):
                pass
        child, parent = tracer.spans
        assert (child.name, parent.name) == ("child", "item")
        assert child.parent == parent.span_id and parent.parent is None
        assert child.item == parent.item == 7
        assert self_times(tracer.spans)[parent.span_id] <= parent.duration - child.duration + 1e-12


class TestErrorRate:
    def test_no_failures_is_small_but_not_zero(self):
        z = 1.6448536269514722
        assert error_rate_upper(0, 100) == pytest.approx(z * z / (100 + z * z))

    def test_grows_with_failures_and_stays_a_rate(self):
        rates = [error_rate_upper(k, 50) for k in range(51)]
        assert all(a < b for a, b in zip(rates, rates[1:]))
        assert rates[-1] <= 1.0

    def test_taken_over_the_first_items_only(self):
        n = harness.ERROR_ITEMS
        result = harness.LoopResult([0.1] * 3 * n, [1.0] * 3 * n, failed_at=[3, 2 * n])
        assert harness.error_rate(result) == error_rate_upper(1, n)

    def test_does_not_depend_on_run_length(self):
        n = harness.ERROR_ITEMS
        short = harness.LoopResult([0.1] * n, [1.0] * n)
        long = harness.LoopResult([0.1] * 10 * n, [1.0] * 10 * n)
        assert harness.error_rate(short) == harness.error_rate(long) > 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_passes_real_item_and_rejects_corrupted_optimum(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    case = workload.build(3, tmp_path)[0]
    out = workload.item(case, harness.NULL_TRACER)
    assert workload.gate(case, out) == []
    assert workloads.gate_self_test(workload, case)


def test_runner_counts_gate_failures():
    class Failing:
        def item(self, case, tracer):
            return case

        def gate(self, case, out):
            return ["wrong"] if out % 2 else []

    result = harness.LoopResult()
    harness.ItemRunner(Failing(), [0, 1, 2, 3]).run_pass(harness.NULL_TRACER, result)
    assert (result.attempted, result.failed, result.gate_failed) == (4, 2, 2)


def test_run_attempts_error_items_however_short():
    class Passing:
        def item(self, case, tracer):
            return case

        def gate(self, case, out):
            return []

    result = harness.ItemRunner(Passing(), [0, 1, 2]).run_for(1e-9)
    assert result.attempted == harness.ERROR_ITEMS


def test_round_trip_shape_counts_dense_triples():
    s = workloads.scenario.generate(workloads.scenario.GeneratorConfig(
        n_prompts=3, n_candidates=2, translator_mode="noisy", noise=0.2, seed=1))
    terms, support, rows = workloads.round_trip_shape(s)
    # every prompt reaches all P prompts, C responses each, C back-translations
    assert rows == 6
    assert terms == rows * 3 * 2 * 2
    assert support == rows * 3 * 2
