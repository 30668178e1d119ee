"""Unified session API: typed requests, one dispatch seam.

The front door of the package.  Every workload the layers below serve
— delay evaluation (:mod:`repro.core` / :mod:`repro.engine`), library
characterization (:mod:`repro.library`), static timing analysis
(:mod:`repro.sta`) and the paper's reproduction experiments
(:mod:`repro.analysis`) — is reachable through one seam::

    from repro.api import Session, DelayRequest, StaRequest

    session = Session(tech="finfet15", engine="vectorized")
    sta = session.run(StaRequest(circuit="tree", corners=100))
    print(sta.text)                    # human report
    envelope = sta.to_json()           # machine envelope

Three properties make the seam production-shaped:

* **Typed and serializable** — every request and result is a frozen
  dataclass that round-trips through a schema-versioned strict-JSON
  envelope (``to_json`` / ``from_json``); ``session.run_json`` accepts
  a serialized request directly, so an HTTP service or a distributed
  dispatcher plugs in without new glue.
* **One resolution point** — the session binds technology, engine and
  base parameters once; requests carry only workload data, so the
  same request replays against any binding.
* **Per-session memoization** — repeated requests are dictionary
  lookups (``benchmarks/bench_api.py`` records the cold-vs-warm
  dispatch numbers in ``BENCH_api.json``).

The CLI (:mod:`repro.cli`) is a thin adapter over this package: each
subcommand parses argv into one request, runs it, and renders
``result.text`` (or the JSON envelope with ``--json``).
"""

from .catalog import (EXPERIMENT_DESCRIPTIONS, GATE_CHOICES,
                      TECHNOLOGIES, WORKFLOW_DESCRIPTIONS,
                      experiment_names)
from .requests import (CharacterizeRequest, DelayRequest,
                       DescribeRequest, ExperimentRequest,
                       LibraryRequest, Request, StaRequest,
                       StatsRequest, VersionRequest, WireRequest)
from .results import (CharacterizeResult, DelayResult, DescribeResult,
                      ErrorResult, ExperimentResult,
                      LibraryInspectResult, Result, StaRunResult,
                      StatsResult, VersionResult, WireResult)
from .serialization import (API_SCHEMA, API_SCHEMA_VERSION, ApiRecord,
                            check_schema, from_json, known_kinds)
from .session import Session

__all__ = [
    "API_SCHEMA",
    "API_SCHEMA_VERSION",
    "ApiRecord",
    "CharacterizeRequest",
    "CharacterizeResult",
    "DelayRequest",
    "DelayResult",
    "DescribeRequest",
    "DescribeResult",
    "EXPERIMENT_DESCRIPTIONS",
    "ErrorResult",
    "ExperimentRequest",
    "ExperimentResult",
    "GATE_CHOICES",
    "LibraryInspectResult",
    "LibraryRequest",
    "Request",
    "Result",
    "Session",
    "StaRequest",
    "StaRunResult",
    "StatsRequest",
    "StatsResult",
    "TECHNOLOGIES",
    "VersionRequest",
    "VersionResult",
    "WORKFLOW_DESCRIPTIONS",
    "WireRequest",
    "WireResult",
    "check_schema",
    "experiment_names",
    "from_json",
    "known_kinds",
]
