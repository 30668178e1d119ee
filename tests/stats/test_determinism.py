"""ISSUE 9 determinism acceptance: seeds pin bytes, not just values.

An identical seed must produce a **byte-identical** ``StatsResult``
envelope across the ``reference`` / ``vectorized`` backends *and*
across processes.  Backends agree only to ~1e-24 s at
the raw-delay level (lockstep-Newton rounding), so the contract holds
because every reduction happens on the canonical 1e-16 s quantization
grid — and because the envelope deliberately carries no engine name.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import Session, StatsRequest
from repro.core.parameters import PAPER_TABLE_I
from repro.engine import available_engines
from repro.stats import (ParameterDistribution, fit_surrogate,
                         sample_delays)
from repro.units import PS

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
BACKENDS = ("reference", "vectorized")

REQUEST = StatsRequest(deltas=(-15.0 * PS, 0.0, 15.0 * PS),
                       samples=96, seed=21,
                       sigma=(("r1", 0.1), ("co", 0.06)))

DIST = ParameterDistribution(PAPER_TABLE_I,
                             {"r1": 0.1, "co": 0.06})


def test_backends_are_registered():
    assert set(BACKENDS) <= set(available_engines())


@pytest.mark.parametrize("backend", BACKENDS)
def test_sample_matrix_is_backend_invariant(backend):
    baseline = sample_delays(DIST, REQUEST.deltas, samples=64,
                             seed=21, engine="reference")
    matrix = sample_delays(DIST, REQUEST.deltas, samples=64,
                           seed=21, engine=backend)
    assert matrix.tobytes() == baseline.tobytes()


@pytest.mark.parametrize("backend", BACKENDS)
def test_envelope_is_backend_invariant(backend):
    baseline = Session(engine="reference").run(REQUEST).to_json()
    envelope = Session(engine=backend).run(REQUEST).to_json()
    assert envelope.encode() == baseline.encode()
    # The envelope must not leak which backend produced it.
    assert backend not in envelope


@pytest.mark.parametrize("backend", BACKENDS)
def test_surrogate_coefficients_are_backend_invariant(backend):
    baseline = fit_surrogate(DIST, REQUEST.deltas, degree=2,
                             engine="reference")
    fitted = fit_surrogate(DIST, REQUEST.deltas, degree=2,
                           engine=backend)
    assert fitted.coefficients.tobytes() \
        == baseline.coefficients.tobytes()


@pytest.mark.parametrize("gate", ["nor3", "nor4"])
@pytest.mark.parametrize("direction", ["falling", "rising"])
def test_n_input_envelope_is_backend_invariant(gate, direction):
    request = dataclasses.replace(REQUEST, gate=gate,
                                  direction=direction, samples=32)
    envelopes = {Session(engine=backend).run(request).to_json().encode()
                 for backend in BACKENDS}
    assert len(envelopes) == 1


def test_per_instance_n_input_yield_is_backend_invariant():
    request = StatsRequest(method="yield", circuit="nor3_mixed",
                           per_instance=True, samples=16, seed=13,
                           required=250.0 * PS)
    envelopes = {Session(engine=backend).run(request).to_json().encode()
                 for backend in BACKENDS}
    assert len(envelopes) == 1


def test_envelope_is_process_invariant():
    """A fresh interpreter reproduces the exact envelope bytes."""
    local = Session().run(REQUEST).to_json()
    script = (
        "from repro.api import Session, StatsRequest, from_json\n"
        "import sys\n"
        f"request = from_json({REQUEST.to_json()!r})\n"
        "sys.stdout.write(Session().run(request).to_json())\n")
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    env.pop("REPRO_CACHE_DIR", None)
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True,
                            env=env, check=True, timeout=120)
    assert result.stdout == local
    # Sanity: the shared bytes decode to real statistics.
    payload = json.loads(local)
    assert payload["kind"] == "stats_result"
    assert len(payload["data"]["mean"]) == 3


def test_yield_envelope_repeats():
    request = StatsRequest(method="yield", samples=48, seed=13,
                           required=260.0 * PS,
                           arrival_sigma=2.0 * PS)
    first = Session().run(request)
    second = Session().run(request)
    assert first.to_json() == second.to_json()
    assert 0.0 <= first.yield_fraction <= 1.0


def test_different_seeds_differ():
    base = Session().run(REQUEST)
    other = Session().run(dataclasses.replace(REQUEST, seed=22))
    assert not np.array_equal(base.mean, other.mean)
