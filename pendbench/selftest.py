"""The benchmark's own tests: seeded inputs, closed-form expectations, tracer arithmetic.

Run from the repository root:

    python3 -m pytest -q pendbench/selftest.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_same_seed_gives_identical_inputs():
    for index in range(8):
        assert wl.make_case(7, index) == wl.make_case(7, index)
        case = wl.make_case(7, index)
        assert np.array_equal(wl.grid_points(7, case, 100), wl.grid_points(7, case, 100))
        assert np.array_equal(wl.shoot_zero(7, case), wl.shoot_zero(7, case))
    assert wl.make_case(7, 5) != wl.make_case(8, 5)


def test_streams_start_with_the_presets_verbatim():
    from pendavg.config import PRESETS

    for seed in (0, 1):
        for index, name in enumerate(("corollary1", "corollary2")):
            case, preset = wl.make_case(seed, index), PRESETS[name]
            assert (case.f1, case.f2, case.mode, case.p) == (preset.f1, preset.f2, preset.mode, preset.p)
            assert (case.r1, case.r2) == (preset.r1, preset.r2)


@pytest.mark.parametrize("workload", sorted(wl.CYCLES))
def test_every_class_appears_in_each_cycle(workload):
    cycle = wl.CYCLES[workload]
    cases = [wl.make_case(3, i, cycle) for i in range(len(cycle), 2 * len(cycle))]
    assert [(case.mode, case.p) for case in cases] == list(cycle)


@pytest.mark.parametrize("seed", [5, 6])
def test_closed_form_zeros_match_find_zeros(seed):
    from pendavg.averaging import AveragedSystem, antipodal_pairing, find_zeros
    from pendavg.model import PerturbationSpec

    for index in (2, 5):  # mode1 at p = 2, mode2 at p = 1
        case = wl.make_case(seed, index)
        spec = PerturbationSpec.from_strings(case.f1, case.f2, case.mode, case.p, 1)
        zeros = find_zeros(AveragedSystem(spec), r1=case.r1, r2=case.r2)
        found = np.array([z.alpha for z in zeros])
        assert len(found) == len(case.zeros)
        for target in case.zeros:
            assert np.abs(found - target).max(axis=1).min() <= wl.ZERO_TOL
        assert len(antipodal_pairing(zeros)) == case.orbit_classes


def test_closed_form_pair_matches_quadrature():
    from pendavg.averaging import AveragedSystem
    from pendavg.model import PerturbationSpec

    for index in range(2, 6):
        case = wl.make_case(11, index)
        points = wl.grid_points(11, case, 50)
        spec = PerturbationSpec.from_strings(case.f1, case.f2, case.mode, case.p, 1)
        values = AveragedSystem(spec, tol=wl.QUAD_TOL).eval_many(points)
        assert wl.check_grid(case, points, values) is None
        assert wl.check_grid(case, points, values * (1 + 1e-6)) is not None


def test_search_check_ignores_order_but_not_values():
    import json

    case = wl.make_case(4, 2)
    zeros = [{"alpha": list(z), "simple": True} for z in case.zeros[::-1]]
    report = {"zeros": zeros, "orbit_classes": 2, "classes": [[0, 3], [1, 2]]}
    assert wl.check_search(case, (0, json.dumps(report))) is None
    zeros[0]["alpha"][0] += 1e-6
    assert wl.check_search(case, (0, json.dumps(report))) is not None


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_child_spans_and_leaves():
    # op [0, 10] > a [1, 7] > b [2, 4]; a also holds a 1.5 s leaf; c [8, 9].
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 8.0, 9.0, 10.0]))
    tracer.begin("bench.op")
    tracer.begin("layer.a")
    tracer.begin("layer.b")
    tracer.end()
    tracer.leaf("expr.eval", 1.5)
    tracer.end()
    tracer.begin("layer.c")
    tracer.end()
    tracer.end()
    assert tracer.self_times() == [10.0 - 6.0 - 1.0, 6.0 - 2.0 - 1.5, 2.0, 1.0]
    totals = tracer.totals()
    assert totals["layer.a"] == [1, 6.0, 2.5]
    assert totals["expr.eval"] == [1, 1.5, 1.5]
    assert sum(self_s for _, _, self_s in totals.values()) == pytest.approx(10.0)


def test_rescaling_cancels_the_host_speed():
    import hostspeed

    # An op twice as slow while the reference is twice as slow reads the same.
    assert hostspeed.rescale(2.0, 2 * hostspeed.REF_S) == hostspeed.rescale(1.0, hostspeed.REF_S) == 1.0
    # A reading is the median of its reference runs, one outlier or not.
    durations = [0.01 * (1 + i % 3) for i in range(hostspeed.SLICES - 1)] + [5.0]
    ticks = [tick for i, d in enumerate(durations) for tick in (float(i), i + d)]
    assert hostspeed.reading(FakeClock(ticks)) == pytest.approx(sorted(durations)[hostspeed.SLICES // 2])
    # Op i runs between readings i and i + 1 and averages SIDE on each side.
    readings = [float(r) for r in range(10)]
    assert hostspeed.SIDE == 3
    assert hostspeed.op_reference(readings, 0) == np.mean(readings[0:4])
    assert hostspeed.op_reference(readings, 4) == np.mean(readings[2:8])
    assert hostspeed.op_reference(readings, 8) == np.mean(readings[6:10])


def test_wrappers_nest_and_restore():
    import pendavg.continuation as continuation
    import probes

    original = continuation.flow_map
    tracer = Tracer()
    with probes.instrument(tracer):
        assert continuation.flow_map is not original
        wl.run_grid(wl.make_case(0, 0), wl.grid_points(0, wl.make_case(0, 0), 10))
    assert continuation.flow_map is original
    names = [span[0] for span in tracer.spans]
    assert names == ["model.spec", "averaging.eval_many"]
    assert tracer.leaf_calls["expr.eval"] > 0 and tracer.leaf_calls["expr.eval"] % 2 == 0
    assert tracer.counts["averaging.eval_points"] == 10


def test_benchmark_json_lists_what_the_runner_reports():
    import json

    import probes

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    # ``grid`` runs by hand only: three workloads at this run length would
    # not fit the benchmark's total time budget.
    assert [w["name"] for w in bench["workloads"]] == ["search", "shoot"]
    assert set(wl.CYCLES) == {"search", "shoot", "grid"}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in probes.PER_LAYER
    ]
    assert {m["name"] for m in bench["end_to_end"]} == {"ops_per_s", "op_s_p50", "peak_rss_mb", "setup_s"}
