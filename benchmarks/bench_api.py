"""Session-facade benchmarks: cold vs warm dispatch overhead.

The session facade (:mod:`repro.api`) puts one dispatch seam in front
of every workload, so its overhead must stay negligible.  Three
regimes are measured on a small :class:`~repro.api.DelayRequest`:

* **cold** — a fresh :class:`~repro.api.Session` running its first
  request: engine resolution plus the engine's per-parameter-set
  solution-cache construction;
* **warm (cached)** — the same request repeated on the same session:
  a dictionary lookup;
* **warm (uncached)** — the same request through a ``cache=False``
  session: handler dispatch + engine evaluation on warm engine
  caches, compared against calling the engine directly to isolate
  the dispatch overhead.

The same request's envelope codec is recorded beside them: decoding
its JSON text with :func:`~repro.api.from_json` and encoding its
result with ``to_json`` — the per-request cost every ``/v1/run`` pays
before and after dispatch.

The record is written to ``BENCH_api.json`` at the repository root,
tracked across PRs next to ``BENCH_runtime.json`` /
``BENCH_sta.json`` / ``BENCH_library.json``.

The module doubles as a CI smoke check::

    python benchmarks/bench_api.py --smoke

runs a reduced repeat count (no pytest needed) and exits non-zero if
the cache stops caching or the dispatch overhead explodes.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.api import DelayRequest, Session, from_json

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata  # noqa: E402

#: Dispatch must cost microseconds, not milliseconds: the uncached
#: session path may exceed the direct engine call by at most this.
_OVERHEAD_CEILING_S = 2e-3
#: Machine-readable record tracked across PRs.
_JSON_PATH = pathlib.Path(__file__).parents[1] / "BENCH_api.json"

#: Full / smoke warm-repeat counts.
FULL_REPEATS = 2000
SMOKE_REPEATS = 200

#: The probed request: a 16-point falling sweep (small on purpose —
#: the probe measures the seam, not the engine).
_REQUEST = DelayRequest(
    deltas=tuple((float(d),) for d in np.linspace(-40e-12, 40e-12,
                                                  16)))


def measure_dispatch(repeats: int) -> dict:
    """Time the three dispatch regimes; returns the JSON payload."""
    # Cold: fresh session, first request.
    cold_session = Session()
    start = time.perf_counter()
    result = cold_session.run(_REQUEST)
    cold_s = time.perf_counter() - start

    # Warm, cached: repeats on the same session are dict lookups.
    start = time.perf_counter()
    for _ in range(repeats):
        cold_session.run(_REQUEST)
    cached_s = (time.perf_counter() - start) / repeats

    # Warm, uncached: full handler dispatch every time.
    uncached_session = Session(cache=False)
    uncached_session.run(_REQUEST)  # warm the engine caches
    start = time.perf_counter()
    for _ in range(repeats):
        uncached_session.run(_REQUEST)
    uncached_s = (time.perf_counter() - start) / repeats

    # Baseline: the direct engine call the handler wraps.
    engine = uncached_session.engine
    params = uncached_session.parameters
    deltas = np.asarray([entry[0] for entry in _REQUEST.deltas])
    engine.delays_falling(params, deltas)
    start = time.perf_counter()
    for _ in range(repeats):
        engine.delays_falling(params, deltas)
    direct_s = (time.perf_counter() - start) / repeats

    # Envelope codec: request text in, result text out.
    text = _REQUEST.to_json()
    start = time.perf_counter()
    for _ in range(repeats):
        from_json(text)
    decode_s = (time.perf_counter() - start) / repeats
    start = time.perf_counter()
    for _ in range(repeats):
        result.to_json()
    encode_s = (time.perf_counter() - start) / repeats

    return {
        "workload": "session dispatch of a 16-point DelayRequest "
                    "(cold resolve vs cached vs uncached vs direct "
                    "engine call)",
        "repeats": repeats,
        "cold_first_request_seconds": cold_s,
        "warm_cached_seconds_per_request": cached_s,
        "warm_uncached_seconds_per_request": uncached_s,
        "direct_engine_seconds_per_call": direct_s,
        "dispatch_overhead_seconds": uncached_s - direct_s,
        "cached_speedup_vs_uncached": uncached_s / cached_s,
        "decode_seconds_per_request": decode_s,
        "encode_seconds_per_request": encode_s,
        "cache_hits": cold_session.cache_info()["hits"],
        "environment": environment_metadata(),
    }


def test_api_dispatch_record(benchmark, write_result):
    """Cold/warm dispatch record -> BENCH_api.json."""
    payload = benchmark.pedantic(
        lambda: measure_dispatch(FULL_REPEATS), rounds=1,
        iterations=1)
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    write_result("api", json.dumps(payload, indent=2,
                                   sort_keys=True))
    benchmark.extra_info["overhead_us"] = round(
        payload["dispatch_overhead_seconds"] * 1e6, 1)
    assert payload["cache_hits"] == payload["repeats"]
    assert (payload["warm_cached_seconds_per_request"]
            < payload["cold_first_request_seconds"])
    assert payload["dispatch_overhead_seconds"] \
        < _OVERHEAD_CEILING_S


def main(argv=None) -> int:
    """Script entry point (CI smoke mode without pytest)."""
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help=f"reduced repeats ({SMOKE_REPEATS}) "
                             "for fast CI checks")
    parser.add_argument("--repeats", type=int, default=None,
                        help="override the warm repeat count")
    args = parser.parse_args(argv)
    repeats = args.repeats or (SMOKE_REPEATS if args.smoke
                               else FULL_REPEATS)
    payload = measure_dispatch(repeats)
    _JSON_PATH.write_text(json.dumps(payload, indent=2,
                                     sort_keys=True) + "\n")
    print(f"cold {payload['cold_first_request_seconds'] * 1e3:.2f} "
          f"ms, warm cached "
          f"{payload['warm_cached_seconds_per_request'] * 1e6:.1f} "
          f"us/req, warm uncached "
          f"{payload['warm_uncached_seconds_per_request'] * 1e6:.1f} "
          f"us/req, dispatch overhead "
          f"{payload['dispatch_overhead_seconds'] * 1e6:.1f} us, "
          f"decode "
          f"{payload['decode_seconds_per_request'] * 1e6:.1f} us, "
          f"encode "
          f"{payload['encode_seconds_per_request'] * 1e6:.1f} us")
    print(f"wrote {_JSON_PATH}")
    if payload["cache_hits"] != repeats:
        print("FAIL: session cache did not serve the repeats",
              file=sys.stderr)
        return 1
    if (payload["warm_cached_seconds_per_request"]
            >= payload["cold_first_request_seconds"]):
        print("FAIL: cached dispatch not faster than cold",
              file=sys.stderr)
        return 1
    if payload["dispatch_overhead_seconds"] >= _OVERHEAD_CEILING_S:
        print(f"FAIL: dispatch overhead "
              f"{payload['dispatch_overhead_seconds'] * 1e6:.1f} us "
              f"above {_OVERHEAD_CEILING_S * 1e6:.0f} us",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
