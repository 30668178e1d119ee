"""STA at scale: absolute seconds on generated netlists.

Writes ``BENCH_sta_scale.json`` at the repository root with, per
netlist size (1k, 5k and 10k gates from ``perfbench/netgen.py``):

* ``build_seconds`` — ``build_timing_graph`` (the graph and its level
  plan);
* ``analyze_seconds_per_gate`` — one ``analyze`` with a required time
  and three ranked paths, divided by the gate count;
* ``sweep_seconds_per_gate_corner`` — one 64-corner ``sweep_corners``
  (four process variants × random arrivals), divided by gates ×
  corners;
* the plan's level count and the sweep's engine calls, which depend
  on the netlist's depth, not on its size.

Generating a netlist is not timed: netgen rebuilds its candidate pool
for every gate, so generation grows quadratically with the gates per
level (20–30 s at 10k gates on a 2-vCPU host), and a 100k-gate point
is out of reach until the generator changes.

CI smoke mode::

    python benchmarks/bench_sta_scale.py --smoke

runs the 1k-gate point only, prints it without writing the record,
and fails unless ``sweep_corners`` matches ``sweep_corners_scalar``
within the 1e-15 s parity bound on a subset of the corners.
"""

import argparse
import json
import math
import pathlib
import sys
import time

import numpy as np

from repro.core.parameters import PAPER_TABLE_I
from repro.obs import metrics
from repro.sta import (analyze, build_timing_graph, sweep_corners,
                       sweep_corners_scalar)

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata  # noqa: E402
from perfbench.netgen import generate_netlist  # noqa: E402

_JSON_PATH = ROOT / "BENCH_sta_scale.json"

FULL_SIZES = (1000, 5000, 10000)
SMOKE_SIZES = (1000,)
CORNERS = 64
REQUIRED = 400e-12
SEED = 1234

#: Vectorized-vs-scalar sweep bound (seconds) and the corners the
#: smoke re-runs through the scalar loop.
PARITY_TOL = 1e-15
PARITY_CORNERS = 4


def _engine_calls() -> float:
    children = metrics.registry().get("repro_engine_calls_total") or {}
    return float(sum(counter.value for counter in children.values()))


def _variants() -> list:
    return [PAPER_TABLE_I.replace(r3=PAPER_TABLE_I.r3 * scale,
                                  r4=PAPER_TABLE_I.r4 * scale)
            for scale in (0.9, 1.0, 1.1, 1.2)]


def measure(gates: int, parity: bool) -> dict:
    """Build, analyze and sweep one generated netlist."""
    netlist = generate_netlist(SEED, gates=gates)
    start = time.perf_counter()
    graph = build_timing_graph(netlist.circuit)
    build_s = time.perf_counter() - start

    rng = np.random.default_rng([SEED, gates])
    arrivals = {signal: (float(rng.uniform(0.0, 30e-12)), -math.inf)
                for signal in graph.inputs}
    start = time.perf_counter()
    analyze(graph, arrivals=arrivals, required=REQUIRED, top_paths=3)
    analyze_s = time.perf_counter() - start

    variants = _variants()
    params = [variants[k % len(variants)] for k in range(CORNERS)]
    corner_arrivals = {signal: rng.uniform(0.0, 40e-12, CORNERS)
                       for signal in graph.inputs}
    calls = _engine_calls()
    start = time.perf_counter()
    sweep = sweep_corners(graph, params=params, arrivals=corner_arrivals,
                          required=REQUIRED)
    sweep_s = time.perf_counter() - start
    calls = _engine_calls() - calls

    row = {
        "gates": gates,
        "nor3": netlist.nor3,
        "wires": len(netlist.trees),
        "levels": len(graph.plan.levels),
        "build_seconds": build_s,
        "analyze_seconds": analyze_s,
        "analyze_seconds_per_gate": analyze_s / gates,
        "sweep_seconds": sweep_s,
        "sweep_seconds_per_gate_corner": sweep_s / (gates * CORNERS),
        "sweep_engine_calls": calls,
    }
    if parity:
        picks = rng.choice(CORNERS, PARITY_CORNERS, replace=False)
        scalar = sweep_corners_scalar(
            graph, params=[params[k] for k in picks],
            arrivals={signal: values[picks]
                      for signal, values in corner_arrivals.items()},
            required=REQUIRED)
        worst = 0.0
        for node, expected in scalar.arrivals.items():
            got = sweep.arrivals[node][picks]
            finite = np.isfinite(expected)
            if not (np.array_equal(finite, np.isfinite(got))
                    and np.array_equal(expected[~finite], got[~finite])):
                worst = math.inf
            elif finite.any():
                worst = max(worst, float(np.max(np.abs(
                    expected[finite] - got[finite]))))
        row["parity_s"] = worst
    return row


def main(argv=None) -> int:
    """Script entry point."""
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="1k gates only, with the sweep parity "
                             "check; the record is not written")
    args = parser.parse_args(argv)
    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    rows = []
    for gates in sizes:
        row = measure(gates, parity=args.smoke)
        rows.append(row)
        print(f"{gates:6d} gates, {row['levels']} levels: build "
              f"{row['build_seconds']:.3f} s, analyze "
              f"{row['analyze_seconds_per_gate'] * 1e6:.1f} µs/gate, "
              f"sweep {row['sweep_seconds_per_gate_corner'] * 1e9:.1f} "
              f"ns/gate-corner ({row['sweep_engine_calls']:.0f} engine "
              "calls)")
    if args.smoke:
        parity = rows[0]["parity_s"]
        print(f"sweep vs scalar parity {parity:.2e} s")
        if not parity <= PARITY_TOL:
            print(f"FAIL: sweep/scalar parity {parity:.2e} s above "
                  f"{PARITY_TOL:.0e} s", file=sys.stderr)
            return 1
        return 0
    payload = {
        "workload": "build, analyze and a 64-corner sweep_corners on "
                    "perfbench netgen NOR2/NOR3 netlists with RC wires "
                    f"(seed {SEED})",
        "corners": CORNERS,
        "sizes": rows,
        "environment": environment_metadata(),
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    print(f"wrote {_JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
