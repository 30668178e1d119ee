"""Golden parity: the rebuilt CLI prints what the old CLI printed.

Every subcommand of the rebuilt :mod:`repro.cli` is a thin adapter
over ``Session.run(request)``.  These tests pin the adapter to the
pre-redesign behavior two ways:

* **byte-identical human output** — each subcommand's stdout is
  compared against a *legacy replica*: the exact rendering the old
  CLI assembled from the kernel calls (``experiment_*``, the
  characterize/library/sta runners).  Timing-laden kernels (engines,
  runtime, the analog figures) are stubbed identically on both sides,
  which proves the routing without the nondeterminism.
* **valid ``--json`` output** — each subcommand's envelope parses as
  strict JSON, carries the schema tag, and decodes back to its typed
  result.
"""

import json
import types

import pytest

import repro.analysis.experiments as exp
from repro.api import from_json
from repro.cli import main
from repro.units import PS


def run_cli(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


# ----------------------------------------------------------------------
# deterministic subcommands: compare against the kernel rendering
# ----------------------------------------------------------------------

class TestDeterministicParity:
    def test_version(self, capsys):
        from repro._version import __version__
        assert run_cli(capsys, ["version"]) == f"repro {__version__}\n"

    def test_fig4(self, capsys):
        assert run_cli(capsys, ["fig4"]) \
            == exp.experiment_fig4().text + "\n"

    def test_table1(self, capsys):
        assert run_cli(capsys, ["table1"]) \
            == exp.experiment_table1().text + "\n"

    def test_analytic(self, capsys):
        assert run_cli(capsys, ["analytic"]) \
            == exp.experiment_analytic().text + "\n"

    def test_faithfulness(self, capsys):
        assert run_cli(capsys, ["faithfulness"]) \
            == exp.experiment_faithfulness().text + "\n"

    @pytest.mark.parametrize("figure,runner", [
        ("fig5", exp.experiment_fig5),
        ("fig6", exp.experiment_fig6),
        ("fig8", exp.experiment_fig8),
    ])
    def test_engine_figures(self, capsys, figure, runner):
        for engine in ("vectorized", "reference"):
            golden = runner(characterization=None,
                            engine=engine).text + "\n"
            assert run_cli(capsys, [figure, "--engine",
                                    engine]) == golden

    def test_sta_validate(self, capsys):
        golden = exp.experiment_sta(engine=None).text + "\n"
        assert run_cli(capsys, ["sta", "--validate"]) == golden


def _legacy_sta_text(circuit="tree", engine=None, required=None,
                     top=3, corners=None, seed=0):
    """The old ``_run_sta`` rendering, kept verbatim as the golden."""
    from repro.engine import get_engine
    from repro.sta import (analyze, build_timing_graph, demo_corners,
                           render_report, render_sweep_summary,
                           sta_circuit, sweep_corners)

    backend = get_engine(engine)
    graph = build_timing_graph(sta_circuit(circuit), engine=backend)
    result = analyze(graph, required=required, top_paths=top)
    lines = [render_report(result,
                           title=f"STA report: circuit '{circuit}' "
                                 f"via '{backend.name}'")]
    if corners is not None:
        params_axis, corner_arrivals = demo_corners(
            corners, [graph.inputs[0]], seed=seed)
        sweep = sweep_corners(graph, params=params_axis,
                              arrivals=corner_arrivals,
                              required=required)
        lines.append("")
        lines.append(render_sweep_summary(sweep))
    return "\n".join(lines)


class TestStaParity:
    def test_default_report(self, capsys):
        assert run_cli(capsys, ["sta"]) \
            == _legacy_sta_text() + "\n"

    def test_options_report(self, capsys):
        golden = _legacy_sta_text(circuit="chain",
                                  required=250.0 * PS, top=2,
                                  corners=8, seed=3)
        out = run_cli(capsys, ["sta", "--circuit", "chain",
                               "--required", "250", "--top", "2",
                               "--corners", "8", "--seed", "3"])
        assert out == golden + "\n"


def _legacy_characterize_text(gate, engine_name, core_points,
                              state_points, name, out_path):
    """The old ``_run_characterize`` rendering (paper-parameter
    path), kept verbatim as the golden."""
    import dataclasses

    from repro.core.multi_input import paper_generalized
    from repro.core.parameters import PAPER_TABLE_I
    from repro.library import (characterize_library,
                               default_delta_grid, default_state_grid,
                               default_vector_delta_grid,
                               generalized_jobs, paper_jobs,
                               verify_table)
    from repro.library.characterize import (DEFAULT_CORE_POINTS,
                                            DEFAULT_STATE_POINTS)
    from repro.units import to_ps

    params, suffix = PAPER_TABLE_I, "paper"
    if gate != "nor2":
        num_inputs = int(gate[len("nor"):])
        wide = paper_generalized(num_inputs, params)
        jobs = generalized_jobs(num_inputs, wide,
                                technology="finfet15", suffix=suffix)
        if core_points is not None:
            deltas = tuple(default_vector_delta_grid(
                wide, core_points=core_points))
            jobs = tuple(dataclasses.replace(job, deltas=deltas)
                         for job in jobs)
    else:
        jobs = paper_jobs(params, technology="finfet15",
                          suffix=suffix)
        if core_points is not None or state_points is not None:
            deltas = tuple(default_delta_grid(
                params,
                core_points=core_points or DEFAULT_CORE_POINTS))
            states = tuple(default_state_grid(
                params, points=state_points or DEFAULT_STATE_POINTS))
            jobs = tuple(dataclasses.replace(job, deltas=deltas,
                                             state_grid=states)
                         for job in jobs)
    library = characterize_library(jobs, engine=engine_name,
                                   name=name)
    path = library.save(out_path)
    lines = [f"characterized {len(library)} cells via "
             f"'{engine_name}':"]
    worst = 0.0
    for cell in library.cells:
        accuracy = verify_table(library[cell], engine=engine_name)
        worst = max(worst, accuracy.max_error)
        lines.append(f"  {library[cell].describe()}")
        lines.append(f"    interpolation error: falling "
                     f"{to_ps(accuracy.falling_error) * 1000.0:.2f} "
                     f"fs, rising "
                     f"{to_ps(accuracy.rising_error) * 1000.0:.2f} fs")
    if gate == "nor2":
        lines.append(f"worst interpolation error "
                     f"{to_ps(worst) * 1000.0:.2f} fs "
                     "(acceptance: <= 100 fs)")
    else:
        lines.append(f"worst interpolation error "
                     f"{to_ps(worst) * 1000.0:.2f} fs "
                     "(multilinear on the tensor grid; raise "
                     "--core-points to tighten)")
    lines.append(f"wrote {path}")
    return "\n".join(lines)


class TestCharacterizeAndLibraryParity:
    def test_characterize_nor2(self, capsys, tmp_path):
        golden = _legacy_characterize_text(
            "nor2", "vectorized", 33, 2, "repro-hybrid",
            tmp_path / "golden.json")
        out = run_cli(capsys, ["characterize", "--core-points", "33",
                               "--state-points", "2", "--out",
                               str(tmp_path / "cli.json")])
        assert out == golden.replace("golden.json",
                                     "cli.json") + "\n"
        assert ((tmp_path / "cli.json").read_text()
                == (tmp_path / "golden.json").read_text())

    def test_characterize_nor3(self, capsys, tmp_path):
        golden = _legacy_characterize_text(
            "nor3", "vectorized", 9, None, "repro-hybrid",
            tmp_path / "golden.json")
        out = run_cli(capsys, ["characterize", "--gate", "nor3",
                               "--core-points", "9", "--out",
                               str(tmp_path / "cli.json")])
        assert out == golden.replace("golden.json",
                                     "cli.json") + "\n"

    def test_library_inspection(self, capsys, tmp_path):
        from repro.library import GateLibrary, verify_table
        from repro.units import to_ps

        lib_path = tmp_path / "gates.json"
        run_cli(capsys, ["characterize", "--core-points", "33",
                         "--state-points", "2", "--out",
                         str(lib_path)])

        # Legacy replica of the old `_run_library` listing.
        library = GateLibrary.load(lib_path)
        lines = [f"library '{library.name}' ({len(library)} cells)"]
        for cell in library.cells:
            lines.append(f"  {library[cell].describe()}")
        golden = "\n".join(lines) + "\n"
        assert run_cli(capsys, ["library", str(lib_path)]) == golden

        cell = library.cells[0]
        table = library[cell]
        fall = table.falling.characteristic()
        rise = table.rising.characteristic()
        accuracy = verify_table(table, engine="vectorized")
        detail = "\n".join([
            f"library '{library.name}' ({len(library)} cells)",
            f"  {table.describe()}",
            "    " + fall.describe("delta_fall"),
            "    " + rise.describe("delta_rise"),
            f"    characterized by engine '{table.engine}'",
            f"    verify vs 'vectorized': max "
            f"{to_ps(accuracy.max_error) * 1000.0:.2f} fs",
        ]) + "\n"
        assert run_cli(capsys, ["library", str(lib_path), "--cell",
                                cell, "--verify"]) == detail


class TestStatsParity:
    """``repro stats`` prints the kernel statistics verbatim."""

    def test_mc_matches_kernel_rendering(self, capsys):
        from repro.analysis.reporting import ascii_table
        from repro.core.parameters import PAPER_TABLE_I
        from repro.stats import ParameterDistribution, monte_carlo
        from repro.stats.distributions import VARIABLE_PARAMS
        from repro.units import to_ps

        distribution = ParameterDistribution(
            PAPER_TABLE_I,
            {name: 0.05 for name in VARIABLE_PARAMS})
        summary = monte_carlo(distribution, (-10.0 * PS, 10.0 * PS),
                              samples=200, seed=11)
        headers = ["Δ [ps]", "mean [ps]", "std [ps]"]
        headers += [f"p{level:g} [ps]"
                    for level in summary.percentile_levels]
        rows = []
        for j, delta in enumerate(summary.deltas):
            row = [f"{to_ps(delta):+.2f}",
                   f"{to_ps(summary.mean[j]):.3f}",
                   f"{to_ps(summary.std[j]):.4f}"]
            row += [f"{to_ps(summary.percentile_values[i][j]):.3f}"
                    for i in range(len(summary.percentile_levels))]
            rows.append(tuple(row))
        golden = ascii_table(
            headers, rows,
            title="Monte-Carlo delay statistics: nor2 falling, "
                  "200 samples, seed 11")
        out = run_cli(capsys, ["stats", "--delta", "-10", "--delta",
                               "10", "--samples", "200", "--seed",
                               "11"])
        assert out == golden + "\n"

    def test_yield_matches_kernel_rendering(self, capsys):
        from repro.api import Session
        from repro.core.parameters import PAPER_TABLE_I
        from repro.stats import ParameterDistribution, timing_yield
        from repro.stats.distributions import VARIABLE_PARAMS
        from repro.units import to_ps

        distribution = ParameterDistribution(
            PAPER_TABLE_I,
            {name: 0.05 for name in VARIABLE_PARAMS})
        graph = Session().timing_graph("tree")
        outcome = timing_yield(graph, distribution, samples=64,
                               seed=5, required=90.0 * PS)
        stats = outcome.arrival_stats()
        golden = "\n".join([
            "statistical STA: circuit 'tree', 64 corners "
            "(shared variation), seed 5",
            f"  worst arrival: mean {to_ps(stats['mean']):.3f} ps, "
            f"std {to_ps(stats['std']):.4f} ps, range "
            f"[{to_ps(stats['min']):.3f}, "
            f"{to_ps(stats['max']):.3f}] ps",
            f"  required 90.000 ps -> timing yield "
            f"{outcome.yield_fraction:.4f}",
        ]) + "\n"
        out = run_cli(capsys, ["stats", "--method", "yield",
                               "--samples", "64", "--seed", "5",
                               "--required", "90"])
        assert out == golden


# ----------------------------------------------------------------------
# timing-laden subcommands: identical stub on both sides
# ----------------------------------------------------------------------

class TestStubbedParity:
    """The routing is proven with deterministic kernel stubs."""

    def test_engines(self, capsys, monkeypatch):
        stub = exp.EngineComparisonResult(
            points=64, seconds={"vectorized": 0.25, "reference": 2.5},
            points_per_second={"vectorized": 512.0,
                               "reference": 51.2},
            speedup=10.0, max_abs_difference=1e-15,
            text="ENGINE TABLE GOLDEN")
        calls = []

        def fake(**kwargs):
            calls.append(sorted(kwargs))
            return stub

        monkeypatch.setattr(exp, "experiment_engines", fake)
        out = run_cli(capsys, ["engines"])
        assert out == stub.text + "\n"
        # The experiment runs at its own default size.
        assert calls == [["params"]]
        payload = json.loads(run_cli(capsys, ["engines", "--json"]))
        assert payload["kind"] == "experiment_result"
        assert payload["data"] == {"name": "engines",
                                   "text": stub.text}
        with pytest.raises(SystemExit) as exit_info:
            main(["engines", "--points", "64"])
        assert exit_info.value.code == 2
        assert calls == [["params"]] * 2

    def test_multi_input(self, capsys, monkeypatch):
        stub = exp.MultiInputResult(num_inputs=3,
                                    reduction_error=1e-13,
                                    batch_error=1e-16, speedup=18.0,
                                    text="NOR3 GOLDEN")
        calls = []

        def fake(**kwargs):
            calls.append(sorted(kwargs))
            return stub

        monkeypatch.setattr(exp, "experiment_multi_input", fake)
        out = run_cli(capsys, ["multi_input"])
        assert out == stub.text + "\n"
        # The probe runs at its own default width and grid size; only
        # the session's engine binding is passed through.
        assert calls == [["engine", "params"]]
        payload = json.loads(run_cli(capsys, ["multi_input", "--json"]))
        assert payload["kind"] == "experiment_result"
        assert payload["data"] == {"name": "multi_input",
                                   "text": stub.text}
        for argv in (["multi_input", "--gate", "nor4"],
                     ["multi_input", "--points", "7"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        assert calls == [["engine", "params"]] * 2

    def test_runtime(self, capsys, monkeypatch):
        stub = types.SimpleNamespace(text="RUNTIME GOLDEN")
        monkeypatch.setattr(exp, "experiment_runtime",
                            lambda tech: stub)
        assert run_cli(capsys, ["runtime"]) == stub.text + "\n"

    def test_fig2_routes_the_tech_card(self, capsys, monkeypatch):
        from repro.spice.technology import BULK65
        seen = []

        def fake(tech):
            seen.append(tech)
            return types.SimpleNamespace(text="FIG2 GOLDEN")

        monkeypatch.setattr(exp, "experiment_fig2", fake)
        out = run_cli(capsys, ["fig2", "--tech", "bulk65"])
        assert out == "FIG2 GOLDEN\n"
        assert seen == [BULK65]

    def test_fig7_routes_the_effort_options(self, capsys,
                                            monkeypatch):
        seen = {}

        def fake(tech, seed=0, transitions=None, repetitions=None):
            seen.update(transitions=transitions,
                        repetitions=repetitions, seed=seed)
            return types.SimpleNamespace(text="FIG7 GOLDEN")

        monkeypatch.setattr(exp, "experiment_fig7", fake)
        out = run_cli(capsys, ["fig7", "--transitions", "12",
                               "--repetitions", "3", "--seed", "9"])
        assert out == "FIG7 GOLDEN\n"
        assert seen == {"transitions": 12, "repetitions": 3,
                        "seed": 9}

    def test_library_experiment(self, capsys, monkeypatch):
        stub = types.SimpleNamespace(text="LIBRARY GOLDEN")
        monkeypatch.setattr(exp, "experiment_library",
                            lambda engine=None: stub)
        assert run_cli(capsys, ["library"]) == stub.text + "\n"


# ----------------------------------------------------------------------
# --json envelopes: valid strict JSON for every subcommand
# ----------------------------------------------------------------------

class TestJsonMode:
    FAST = [
        ["list"],
        ["version"],
        ["fig4"],
        ["table1"],
        ["analytic"],
        ["faithfulness"],
        ["fig5"],
        ["fig6"],
        ["fig8"],
        ["delay", "--delta", "10", "--delta", "0"],
        ["engines"],
        ["multi_input"],
        ["sta", "--circuit", "nor2"],
        ["sta", "--circuit", "chain", "--corners", "4"],
        ["stats", "--delta", "0", "--samples", "64"],
        ["stats", "--method", "yield", "--samples", "32",
         "--required", "250"],
        ["stats", "--method", "yield", "--samples", "32",
         "--per-instance"],
        ["wire", "--stages", "2", "--corners", "4"],
        ["wire", "--topology", "fanout", "--model", "elmore",
         "--validate"],
    ]

    @pytest.mark.parametrize("argv", FAST,
                             ids=[" ".join(a) for a in FAST])
    def test_envelope_is_valid_and_typed(self, capsys, argv):
        out = run_cli(capsys, argv + ["--json"])
        payload = json.loads(out)   # strict JSON
        assert payload["schema"] == "repro.api/1"
        result = from_json(payload)
        assert result.text

    @pytest.mark.parametrize("name", ["fig2", "fig7", "runtime"])
    def test_slow_experiments_envelope(self, capsys, monkeypatch,
                                       name):
        stub = types.SimpleNamespace(text=f"{name} GOLDEN")
        monkeypatch.setattr(
            exp, f"experiment_{name}",
            lambda *args, **kwargs: stub)
        payload = json.loads(run_cli(capsys, [name, "--json"]))
        result = from_json(payload)
        assert result.text == stub.text

    def test_characterize_envelope_carries_the_library(self, capsys,
                                                       tmp_path):
        from repro.library import GateLibrary
        out_path = tmp_path / "lib.json"
        assert main(["characterize", "--core-points", "33",
                     "--state-points", "2", "--out", str(out_path),
                     "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # stdout stays pure JSON
        result = from_json(payload)
        library = GateLibrary.from_dict(result.library)
        assert library.cells == result.cells
        # The --out side effect still happened — and is announced on
        # stderr so the write is traceable without corrupting stdout.
        assert (GateLibrary.load(out_path).cells == library.cells)
        assert f"wrote {out_path}" in captured.err

    def test_library_inspection_envelope(self, capsys, tmp_path):
        lib_path = tmp_path / "gates.json"
        run_cli(capsys, ["characterize", "--core-points", "33",
                         "--state-points", "2", "--out",
                         str(lib_path)])
        payload = json.loads(
            run_cli(capsys, ["library", str(lib_path), "--json"]))
        result = from_json(payload)
        assert result.cells
