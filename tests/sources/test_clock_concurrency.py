"""Property-style tests for parallel-region virtual-time semantics.

The invariants under test (see repro/sources/clock.py):

* a region's cost is ``max`` of its task costs, not the sum;
* ``clock.now()`` never decreases — not across tasks, joins, or nesting;
* a region with exactly one task degrades to the sequential cost;
* sequential and nested compositions of regions are associative: the
  same task costs grouped differently yield the same total time.
"""

import random
import threading

import pytest

from repro.errors import SourceError
from repro.sources import SimulatedClock


def run_region(clock, costs):
    """One region with a task per cost; returns the region."""
    with clock.concurrently() as region:
        for cost in costs:
            with region.task():
                clock.advance(cost)
    return region


class TestMaxSemantics:
    def test_two_tasks_cost_the_max(self):
        clock = SimulatedClock()
        run_region(clock, [0.3, 0.5])
        assert clock.now() == pytest.approx(0.5)

    def test_single_task_degrades_to_sequential_cost(self):
        # One task in a region must cost exactly what it would have
        # cost without the region.
        for cost in (0.0, 0.001, 0.25, 3.0):
            clock = SimulatedClock()
            run_region(clock, [cost])
            assert clock.now() == pytest.approx(cost)

    def test_empty_region_is_free(self):
        clock = SimulatedClock()
        clock.advance(2.0)
        run_region(clock, [])
        assert clock.now() == pytest.approx(2.0)

    def test_region_reports_overlap_savings(self):
        clock = SimulatedClock()
        region = run_region(clock, [0.2, 0.2, 0.6])
        assert region.elapsed_s == pytest.approx(0.6)
        assert region.sequential_s == pytest.approx(1.0)
        assert region.overlap_saved_s == pytest.approx(0.4)

    def test_tasks_each_start_at_region_base(self):
        clock = SimulatedClock()
        clock.advance(1.0)
        with clock.concurrently() as region:
            with region.task() as timeline:
                assert timeline.now() == pytest.approx(1.0)
                clock.advance(0.5)
            with region.task() as other:
                # Sibling tasks overlap: the second does not see the
                # first's advance.
                assert other.now() == pytest.approx(1.0)


class TestMonotonicity:
    def test_now_never_decreases_across_many_random_regions(self):
        rng = random.Random(7)
        clock = SimulatedClock()
        last = clock.now()
        for _ in range(50):
            costs = [rng.uniform(0, 0.2)
                     for _ in range(rng.randrange(0, 5))]
            run_region(clock, costs)
            now = clock.now()
            assert now >= last
            last = now

    def test_join_never_moves_time_backwards(self):
        clock = SimulatedClock()
        with clock.concurrently() as region:
            with region.task():
                pass  # zero-cost task: join point == region base
        assert clock.now() == pytest.approx(0.0)

    def test_interleaved_global_advance_is_not_undone(self):
        clock = SimulatedClock()
        region = clock.concurrently()
        with region:
            with region.task():
                clock.advance(0.1)
        clock.advance(5.0)
        # A later region joining below 5.1 must clamp, not rewind.
        run_region(clock, [0.05])
        assert clock.now() == pytest.approx(5.15)

    def test_worker_threads_charge_their_own_timelines(self):
        clock = SimulatedClock()
        errors = []

        def work(region, cost):
            try:
                with region.task():
                    clock.advance(cost)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        with clock.concurrently() as region:
            threads = [
                threading.Thread(target=work, args=(region, cost))
                for cost in (0.2, 0.4, 0.3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert clock.now() == pytest.approx(0.4)


class TestAssociativity:
    def cost_of(self, build):
        clock = SimulatedClock()
        build(clock)
        return clock.now()

    def test_sequential_regions_compose(self):
        # (a | b) then (c | d)  ==  max(a,b) + max(c,d)
        def grouped(clock):
            run_region(clock, [0.1, 0.4])
            run_region(clock, [0.3, 0.2])

        assert self.cost_of(grouped) == pytest.approx(0.4 + 0.3)

    def test_nested_region_equals_flat_max(self):
        # a | (b then c) nested inside one task == max(a, b + c)
        def nested(clock):
            with clock.concurrently() as region:
                with region.task():
                    clock.advance(0.5)
                with region.task():
                    run_region(clock, [0.2])
                    run_region(clock, [0.4])

        assert self.cost_of(nested) == pytest.approx(
            max(0.5, 0.2 + 0.4)
        )

    def test_nesting_depth_does_not_change_cost(self):
        # Wrapping a single-task chain in extra regions is a no-op.
        def flat(clock):
            clock.advance(0.25)

        def once(clock):
            run_region(clock, [0.25])

        def twice(clock):
            with clock.concurrently() as region:
                with region.task():
                    run_region(clock, [0.25])

        assert (self.cost_of(flat)
                == pytest.approx(self.cost_of(once))
                == pytest.approx(self.cost_of(twice)))

    def test_random_groupings_agree(self):
        rng = random.Random(13)
        for _ in range(20):
            costs = [round(rng.uniform(0.01, 0.5), 3)
                     for _ in range(4)]

            def pairwise(clock, costs=costs):
                run_region(clock, costs[:2])
                run_region(clock, costs[2:])

            def one_by_one(clock, costs=costs):
                for cost in costs[:2]:
                    run_region(clock, [cost])
                run_region(clock, costs[2:])

            # Sequential composition of max()s: grouping the first two
            # costs as singleton regions degrades max -> sum for them.
            assert self.cost_of(pairwise) == pytest.approx(
                max(costs[0], costs[1]) + max(costs[2], costs[3])
            )
            assert self.cost_of(one_by_one) == pytest.approx(
                costs[0] + costs[1] + max(costs[2], costs[3])
            )


class TestMisuse:
    def test_task_outside_open_region_rejected(self):
        clock = SimulatedClock()
        region = clock.concurrently()
        with pytest.raises(SourceError):
            region.task()

    def test_task_after_region_close_rejected(self):
        clock = SimulatedClock()
        with clock.concurrently() as region:
            pass
        with pytest.raises(SourceError):
            region.task()

    def test_out_of_order_timeline_exit_rejected(self):
        clock = SimulatedClock()
        with clock.concurrently() as region:
            outer = region.task()
            inner = region.task()
            outer.__enter__()
            inner.__enter__()
            with pytest.raises(SourceError):
                outer.__exit__(None, None, None)
            # Clean up in the correct order for the region exit.
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)


class TestRealThreadRegistration:
    """ParallelRegion is driven by real worker threads in the morsel
    pool; registration, join accounting, and the active flag are all
    guarded by _tasks_lock (regression for raced list appends)."""

    def test_tasks_register_from_worker_threads(self):
        clock = SimulatedClock()
        costs = [0.05 * (i + 1) for i in range(8)]
        with clock.concurrently() as region:
            def work(cost):
                with region.task():
                    clock.advance(cost)

            threads = [threading.Thread(target=work, args=(cost,))
                       for cost in costs]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert clock.now() == pytest.approx(max(costs))
        assert region.sequential_s == pytest.approx(sum(costs))

    def test_closed_region_rejects_late_workers(self):
        clock = SimulatedClock()
        with clock.concurrently() as region:
            with region.task():
                clock.advance(0.1)
        # A straggler thread arriving after the join must be refused
        # atomically (the _active check lives inside _tasks_lock).
        errors = []

        def straggler():
            try:
                region.task()
            except SourceError as exc:
                errors.append(exc)

        thread = threading.Thread(target=straggler)
        thread.start()
        thread.join()
        assert len(errors) == 1
