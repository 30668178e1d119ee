"""Cold start: wall time and peak RSS of fresh ``repro`` processes.

Writes ``BENCH_startup.json`` at the repository root with, per launch:

* ``import repro`` — the package import a library user pays;
* ``import repro.server`` — what ``repro serve`` pays before it
  listens;
* ``python -m repro delay --delta 10 --delta 0 --delta -10 --json`` —
  a short CLI call, start to exit.

Each launch runs ``LAUNCHES`` times in a fresh interpreter with
``PYTHONPATH`` set to this checkout's ``src``, so the script measures
whichever checkout it sits in.  The launches take turns, so host drift
spreads over all three.  One discarded launch of each comes first, so
the file cache (and the bytecode cache, where the environment allows
one) is warm for every timed launch.  The record keeps the median wall
seconds from spawn to exit and the median of each child's own peak RSS
(``ru_maxrss`` from ``os.wait4``), with the samples beside them.

CI smoke mode::

    python benchmarks/bench_startup.py --smoke

runs each launch once, prints it without writing the record, and
fails if a launch exits non-zero.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_common import environment_metadata  # noqa: E402

_JSON_PATH = ROOT / "BENCH_startup.json"

LAUNCHES = 7

CASES = {
    "import repro": ["-c", "import repro"],
    "import repro.server": ["-c", "import repro.server"],
    "repro delay --json": ["-m", "repro", "delay", "--delta", "10",
                           "--delta", "0", "--delta", "-10", "--json"],
}


def launch(args: list) -> tuple:
    """Run ``python *args`` once; return (wall seconds, peak RSS MB).

    stdout goes to the null device; stderr stays attached, so a
    failing launch shows its traceback.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env,
                         file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"python {' '.join(args)} exited with {code}")
    # Linux reports ru_maxrss in KiB.
    return seconds, usage.ru_maxrss / 1024.0


def measure(launches: int) -> dict:
    """Time every case *launches* times, taking turns."""
    for args in CASES.values():
        launch(args)
    samples = {name: [] for name in CASES}
    for _ in range(launches):
        for name, args in CASES.items():
            samples[name].append(launch(args))
    rows = {}
    for name, runs in samples.items():
        seconds = sorted(run[0] for run in runs)
        rss = sorted(run[1] for run in runs)
        rows[name] = {
            "argv": ["python", *CASES[name]],
            "seconds_median": statistics.median(seconds),
            "seconds": seconds,
            "max_rss_mb_median": statistics.median(rss),
            "max_rss_mb": rss,
        }
    return rows


def main(argv=None) -> int:
    """Script entry point."""
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="one launch of each case; the record is "
                             "not written")
    args = parser.parse_args(argv)
    if args.smoke:
        for name, case in CASES.items():
            seconds, rss = launch(case)
            print(f"{name:22s} {seconds:.3f} s, {rss:.1f} MB")
        return 0
    rows = measure(LAUNCHES)
    for name, row in rows.items():
        print(f"{name:22s} {row['seconds_median']:.3f} s, "
              f"{row['max_rss_mb_median']:.1f} MB (median of "
              f"{LAUNCHES})")
    payload = {
        "workload": "fresh-process start-up of the package, its server "
                    "module and a three-point CLI delay call",
        "launches": LAUNCHES,
        "bytecode_cache": not os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "cases": rows,
        "environment": environment_metadata(),
    }
    _JSON_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
    print(f"wrote {_JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
