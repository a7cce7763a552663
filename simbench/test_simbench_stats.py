"""Unit tests of the benchmark's own arithmetic (``benchstats``, ``tracer``)."""

from __future__ import annotations

import statistics

import pytest

from benchstats import (quiet_enough, quietest_windows, samples_beyond,
                        self_time, spread, tail_permille, unattributed_share,
                        union_length)
from steady import parse_seeds
from tracer import SpanIndex, Tracer


class TestTailChoice:
    @pytest.mark.parametrize("count, expected", [
        (19, None), (20, 500), (39, 500), (40, 750), (100, 900),
        (199, 900), (200, 950), (999, 950), (1000, 990), (2000, 995),
        (10000, 999), (10 ** 6, 999)])
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert tail_permille(count) == expected

    def test_counts_beyond_without_rounding_error(self):
        # 100 * (1 - 0.9) is 9.999999999999998 in floating point.
        assert samples_beyond(100, 900) == 10
        assert samples_beyond(1000, 990) == 10
        assert samples_beyond(99, 900) == 9

    def test_fixed_by_the_minimum_count(self):
        # A run never stops before its minimum, so more requests than the
        # minimum may raise tail_permille(n) but not the fixed choice.
        assert tail_permille(40) == tail_permille(41) == 750
        assert tail_permille(1000) == 990 < tail_permille(2000)


class TestSpanAlgebra:
    def test_union_counts_overlap_once(self):
        assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
        assert union_length([(0, 10), (2, 3)]) == 10
        assert union_length([]) == 0

    def test_union_clips_to_window(self):
        assert union_length([(-5, 2), (8, 20)], clip=(0, 10)) == 4

    def test_self_time_with_overlapping_children(self):
        # Children [1, 4] and [3, 6] overlap on [3, 4]: 5 covered, 5 self.
        assert self_time((0, 10), [(1, 4), (3, 6)]) == 5

    def test_self_time_ignores_child_time_outside_parent(self):
        assert self_time((0, 10), [(8, 12)]) == 8

    def test_unattributed_share(self):
        roots = [((0, 10), [(0, 4), (2, 9)]),     # 1 uncovered
                 ((20, 30), [])]                 # 10 uncovered
        assert unattributed_share(roots) == pytest.approx(11 / 20)
        assert unattributed_share([]) == 0.0


class TestQuietWindows:
    WALLS = [1.0, 1.2, 1.1, 0.9, 1.0]
    STEALS = [0.0, 0.08, 0.004, 0.0, 0.02]

    def test_least_stolen_first_earlier_among_equals(self):
        assert quietest_windows(self.WALLS, self.STEALS, 1.9, 1) == [0, 3]
        assert quietest_windows(self.WALLS, self.STEALS, 2.0, 1) == [0, 2, 3]

    def test_covers_the_minimum_window_count(self):
        assert quietest_windows(self.WALLS, self.STEALS, 0.5, 3) == [0, 2, 3]

    def test_takes_stolen_windows_when_quiet_ones_fall_short(self):
        assert quietest_windows(self.WALLS, self.STEALS, 4.5, 1) \
            == [0, 1, 2, 3, 4]

    def test_quiet_enough(self):
        # Windows at or below the limit: 0, 2 and 3, 3.0 s together.
        assert quiet_enough(self.WALLS, self.STEALS, 3.0, 3, 0.005)
        assert not quiet_enough(self.WALLS, self.STEALS, 3.1, 3, 0.005)
        assert not quiet_enough(self.WALLS, self.STEALS, 1.0, 4, 0.005)
        assert not quiet_enough([], [], 0.0, 1, 0.005)


class TestSpread:
    def test_interquartile_share_of_median(self):
        values = [9.0, 10.0, 10.0, 11.0, 12.0, 10.5, 9.5, 10.2, 9.8, 10.1]
        first, middle, third = statistics.quantiles(values, n=4)
        assert spread(values) == pytest.approx((third - first) / middle)

    def test_constant_values_have_no_spread(self):
        assert spread([1.0] * 10) == 0.0
        assert spread([0.0] * 10) == 0.0

    def test_single_value(self):
        assert spread([3.0]) == 0.0


class TestTracer:
    def test_spans_nest_and_self_time_excludes_children(self):
        tracer = Tracer()

        def inner():
            return 1

        wrapped = tracer.wrap(inner, "inner")
        tracer.enabled = True
        tracer.request = 7
        with tracer.span("outer"):
            wrapped()
            wrapped()
        spans = SpanIndex(tracer.spans)
        (outer,) = spans.named("outer")
        assert len(spans.descendants(outer, "inner")) == 2
        assert spans.children_covered(outer) <= spans.duration(outer)
        assert all(span[4] == 7 for span in tracer.spans)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer()
        wrapped = tracer.wrap(lambda: 3, "f")
        assert wrapped() == 3
        with tracer.span("outer"):
            pass
        assert tracer.spans == []

    def test_outermost_skips_recursive_calls(self):
        tracer = Tracer()
        tracer.enabled = True

        def recurse(depth):
            return depth if depth == 0 else traced(depth - 1)

        traced = tracer.wrap(recurse, "r")
        traced(3)
        spans = SpanIndex(tracer.spans)
        assert len(spans.named("r")) == 1
        assert len(spans.named("r", outermost=False)) == 4


def test_parse_seeds():
    assert parse_seeds("1-3") == [1, 2, 3]
    assert parse_seeds("4,9-10") == [4, 9, 10]


DRAIN_DEFECT = """\
Exception in callback StreamReaderProtocol.connection_made.<locals>.callback()
Traceback (most recent call last):
  File "/usr/lib/python3.11/asyncio/events.py", line 80, in _run
    self._context.run(self._callback, *self._args)
  File "/src/repro/service/frontend.py", line 345, in gen
    raw = await reader.readline()
          ^^^^^^^^^^^^^^^^^^^^^^^
  File "/usr/lib/python3.11/asyncio/streams.py", line 540, in _wait_for_data
    await self._waiter
asyncio.exceptions.CancelledError
"""


class TestDrainTracebacks:
    def test_known_defect_is_told_apart(self):
        from serve_mix import drain_tracebacks

        assert drain_tracebacks("# serving stats: {}\n" + DRAIN_DEFECT) \
            == (1, 0)

    def test_other_tracebacks_are_not_excused(self):
        from serve_mix import drain_tracebacks

        crash = DRAIN_DEFECT.replace("asyncio.exceptions.CancelledError",
                                     "KeyError: 'id'")
        elsewhere = DRAIN_DEFECT.replace("repro/service/frontend.py",
                                         "repro/service/workers.py")
        truncated = DRAIN_DEFECT.rsplit("\n", 2)[0]
        assert drain_tracebacks(crash) == (0, 1)
        assert drain_tracebacks(elsewhere) == (0, 1)
        assert drain_tracebacks(truncated) == (0, 1)
        assert drain_tracebacks(DRAIN_DEFECT + crash) == (1, 1)
