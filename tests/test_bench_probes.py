"""The pendavg names the benchmark's tracer patches must stay bound.

``pendbench/probes.py`` replaces pendavg functions through module and class
``__dict__`` entries for the duration of a traced run, and reads some of
their arguments by position.  A rename or a moved argument should fail
here, not only in the benchmark's own self-test.
"""

import os
import sys

import oracles
import pendavg.averaging as averaging
import pendavg.continuation as continuation

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "pendbench"))

import probes  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_instrument_patches_and_restores_pendavg_names():
    flow_map, probe = continuation.flow_map, averaging.is_identically_zero
    with probes.instrument(Tracer()):
        assert continuation.flow_map is not flow_map
        assert averaging.is_identically_zero is not probe
    assert continuation.flow_map is flow_map
    assert averaging.is_identically_zero is probe


def test_shoot_counters_read_through_the_patches():
    # The ``shoot`` workload's counters read the ``states0`` column count
    # positionally and the forcing calls that ``flow_map`` makes; its
    # warm-up passes ``n_samples`` by keyword.
    spec = oracles.make_spec("corollary1")
    tracer = Tracer()
    with probes.instrument(tracer):
        continuation.verify_zero(spec, oracles.CORO1_ZEROS[0], (1e-2,), n_samples=8)
    assert tracer.counts["continuation.flow_map_cols"] > 0
    assert tracer.counts["continuation.rhs_evals"] > 0
    assert tracer.totals()["continuation.sample_states"][0] > 0
