"""The benchmark's own rules: tail percentile, failure counting, seeded
inputs, the ladder's request quota, host-speed scaling, repeatable trace
counts and wrappers that leave no trace behind.

Run with `python3 -m pytest bench/tests -q` from the repository root.
"""
from __future__ import annotations

import signal
import sys
import time
from itertools import islice

import pytest

import hostspeed
import run
import stats
import workloads
from tracer import TARGETS, Tracer


def _bindings() -> dict:
    return {(name, attr): value
            for name, mod in sys.modules.items()
            if name == "wsdirac" or name.startswith("wsdirac.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert stats.tail(samples) == (90.0, 90.0)
    assert stats.tail(samples[:20]) == (10.0, 50.0)
    assert stats.tail(list(reversed(samples[:30]))) == (20.0, 100.0 * 20 / 30)


def test_tail_percentile_is_capped():
    samples = [float(i) for i in range(1, 1001)]
    assert stats.tail(samples) == (900.0, 90.0)


def test_tail_falls_back_to_median_below_twenty_samples():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    assert stats.tail([1.0, 2.0, 3.0, 10.0]) == (2.5, 50.0)
    with pytest.raises(ValueError):
        stats.tail([])


def test_fail_frac_counts_requests_not_checks():
    tally = stats.Tally()
    tally.record([])
    tally.record(["ladder-node-gap", "ladder-node-gap"])
    tally.record([])
    tally.record(["table-mismatch"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.fail_frac == 0.5
    assert not tally.correct  # table-mismatch is not a known defect


def test_known_defect_fails_requests_but_keeps_run_correct():
    tally = stats.Tally()
    tally.record(["ladder-node-gap"])
    tally.record([])
    assert tally.correct and tally.failed == 1
    tally.run_errors.append("trace-counts-differ")
    assert not tally.correct


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = workloads.WORKLOADS[name]
    first = list(islice(w.inputs(7), 3))
    assert list(islice(w.inputs(7), 3)) == first
    assert list(islice(w.inputs(8), 3)) != first


def test_analytic_grid_holds_every_typed_outcome():
    w = workloads.WORKLOADS["analytic-grid"]
    errors = set()
    for grid in islice(w.inputs(3), 4):
        cells, _, _ = w.run(grid)
        errors |= {c.error for c in cells}
    assert {"DegenerateSuperpotential", "NoRealRoot", "LadderSingular",
            None} <= errors


@pytest.mark.parametrize("name", ["analytic-grid", "cli-verify"])
def test_traced_counts_repeat_for_a_seed(name):
    w = workloads.WORKLOADS[name]
    first = run.trace(w, 5, 0.0, stats.Tally())[0]
    second = run.trace(w, 5, 0.0, stats.Tally())[0]
    counted = [k for k in first
               if k.endswith((".calls", ".errors", ".points"))]
    assert counted and {k: first[k] for k in counted} == \
        {k: second[k] for k in counted}
    assert all(first[f"{n}.calls"] > 0 for n in w.fires)


def test_tracer_rebinds_callers_and_restores_them():
    import wsdirac
    from wsdirac import cli, oracle, pekeris, spectrum
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        # callers that imported the name get the wrapper too
        assert cli.solve_energy is spectrum.solve_energy is wsdirac.solve_energy
        assert spectrum.solve_energy is not before[("wsdirac.spectrum",
                                                    "solve_energy")]
        # shape_factor is counted for the oracle's calls only
        assert oracle.shape_factor is not pekeris.shape_factor
        assert pekeris.shape_factor is before[("wsdirac.pekeris", "shape_factor")]
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert len(TARGETS) == len({(m, f) for m, f, _ in TARGETS})


def test_untraced_results_match_traced_and_untouched_runs():
    w = workloads.WORKLOADS["analytic-grid"]
    grids = list(islice(w.inputs(11), 3))
    plain = w.digest([w.run(g) for g in grids])
    tracer = Tracer()
    tracer.install()
    try:
        idle = w.digest([w.run(g) for g in grids])
        assert tracer.spans == []  # no request set: nothing recorded
        tracer.request = 0
        traced = w.digest([w.run(g) for g in grids])
        tracer.request = None
    finally:
        tracer.uninstall()
    assert plain == idle == traced
    assert tracer.spans


def test_only_the_ladder_has_a_quota_and_it_follows_seconds():
    ladder = workloads.WORKLOADS["oracle-ladder"]
    assert ladder.quota(22) == round(22 / workloads.LADDER_REQUEST_S)
    assert ladder.quota(0.1) == ladder.min_requests
    assert all(w.quota(22) is None for name, w in workloads.WORKLOADS.items()
               if name != "oracle-ladder")


def test_reference_window_and_fallback():
    host = hostspeed.HostSpeed()
    host.stamps, host.durations = [1.0, 2.0, 3.0], [1.0, 2.0, 6.0]
    assert host.reference_s(1.5, 3.0) == 4.0
    assert host.reference_s(5.0, 6.0) == 3.0  # none in the window: latest
    with pytest.raises(RuntimeError):
        hostspeed.HostSpeed().reference_s(0.0, 1.0)


def test_sampler_leaves_its_own_time_out_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed() as host:
        mark = host.begin()
        stop = time.perf_counter() + 0.2
        while time.perf_counter() < stop:
            pass
        raw, start, end = host.end(mark)
        host.settle()
    assert len(host.durations) >= 3 and host.spent > 0.0
    assert end - start - host.spent <= raw < end - start
    # scaled by a mean of the reference loop's own times
    reference = raw * hostspeed.REFERENCE_S / host.scale(raw, start, end)
    assert min(host.durations) <= reference <= max(host.durations)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_probe_gives_raw_and_scaled_import_times():
    raw, scaled = run.setup_times(1)
    assert len(raw) == len(scaled) == 1 and raw[0] > 0.0 and scaled[0] > 0.0
