"""The pendavg names the benchmark's tracer patches must stay bound.

``pendbench/probes.py`` replaces pendavg functions through module and class
``__dict__`` entries for the duration of a traced run.  A rename of one of
them should fail here, not only in the benchmark's own self-test.
"""

import os
import sys

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
