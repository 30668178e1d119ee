"""scipy stays off the served paths.

The paper's modes have closed-form solutions, so the default engine,
the n-input kernel, STA, stats, wire and the library never call a
numerical solver.  scipy is imported only inside the oracles that
cross-check them (``brentq``, ``expm``, also behind the ``reference``
engine) and the parameter fit (``least_squares``).
Loading it costs the package about half its start-up time and ~40 MB,
so these tests pin that importing the package, serving one request of
each kind and a CLI call never load it.  Each check runs in a fresh
interpreter, since this test process may already hold scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC_DIR)

_IMPORTS = """
import importlib, sys
for name in ("repro", "repro.api", "repro.server", "repro.cli"):
    importlib.import_module(name)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (name, loaded[:5])
"""

_REQUESTS = """
import sys
from repro.api import (CharacterizeRequest, DelayRequest,
                       ExperimentRequest, Session, StaRequest,
                       StatsRequest, WireRequest)

PS = 1e-12
requests = [
    DelayRequest(direction="falling", deltas=((-10 * PS,), (0.0,))),
    DelayRequest(direction="rising", deltas=((10 * PS,),)),
    DelayRequest(direction="rising", gate="nor3",
                 deltas=((0.0, 5 * PS),)),
    DelayRequest(direction="falling", gate="nor4",
                 deltas=((0.0, 5 * PS, -5 * PS),)),
    CharacterizeRequest(gate="nor2", core_points=5, state_points=2),
    CharacterizeRequest(gate="nor3", core_points=3),
    StaRequest(circuit="tree", corners=4, required=100 * PS),
    StaRequest(circuit="nor3_mixed"),
    StaRequest(circuit="chain_wire", corners=4),
    StatsRequest(method="mc", samples=64),
    StatsRequest(method="mc", gate="nor3", deltas=(0.0, 5 * PS),
                 samples=64),
    StatsRequest(method="surrogate", samples=64),
    StatsRequest(method="yield", samples=16),
    StatsRequest(method="yield", samples=16, per_instance=True),
    WireRequest(),
    WireRequest(validate=True),
    ExperimentRequest(name="fig4"),
]
session = Session()
for request in requests:
    session.run(request)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (request, loaded[:5])
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=ENV,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_import_does_not_load_scipy():
    _python("-c", _IMPORTS)


def test_served_requests_do_not_load_scipy():
    _python("-c", _REQUESTS)


def test_cli_delay_does_not_import_scipy():
    # -X importtime prints one stderr line per module imported.
    proc = _python("-X", "importtime", "-m", "repro", "delay",
                   "--delta", "10", "--json")
    assert "repro.cli" in proc.stderr
    assert "scipy" not in proc.stderr
