"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_tech_choices(self):
        args = build_parser().parse_args(["fig2", "--tech", "bulk65"])
        assert args.tech == "bulk65"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--tech", "tsmc3"])

    def test_fig7_options(self):
        args = build_parser().parse_args(
            ["fig7", "--transitions", "10", "--repetitions", "1"])
        assert args.transitions == 10
        assert args.repetitions == 1

    def test_engine_choices(self):
        args = build_parser().parse_args(["fig5", "--engine",
                                          "reference"])
        assert args.engine == "reference"
        args = build_parser().parse_args(["fig6"])
        assert args.engine == "vectorized"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--engine", "gpu"])

    def test_parallel_engine_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--engine", "parallel"])

    def test_characterize_options(self):
        args = build_parser().parse_args(
            ["characterize", "--out", "x.json", "--core-points",
             "129", "--engine", "reference"])
        assert args.out == "x.json"
        assert args.core_points == 129
        assert args.engine == "reference"

    def test_library_accepts_optional_path(self):
        args = build_parser().parse_args(["library"])
        assert args.path is None
        args = build_parser().parse_args(
            ["library", "lib.json", "--cell", "nor2_paper",
             "--verify"])
        assert args.path == "lib.json"
        assert args.verify

    def test_sta_options(self):
        args = build_parser().parse_args(
            ["sta", "--circuit", "chain", "--required", "250",
             "--top", "2", "--corners", "64", "--json", "out.json"])
        assert args.circuit == "chain"
        assert args.required == 250.0
        assert args.top == 2
        assert args.corners == 64
        assert args.json == "out.json"
        args = build_parser().parse_args(["sta"])
        assert args.circuit == "tree"
        assert not args.validate


class TestVersion:
    """The single-sourced version surfaces (ISSUE 5 satellite)."""

    def test_version_subcommand(self, capsys):
        from repro._version import __version__
        assert main(["version"]) == 0
        assert capsys.readouterr().out == f"repro {__version__}\n"

    def test_version_flag(self, capsys):
        from repro._version import __version__
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == f"repro {__version__}\n"

    def test_version_json(self, capsys):
        import json
        from repro._version import __version__
        assert main(["version", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["data"]["version"] == __version__

    def test_single_source(self):
        """No duplicated version strings: package == pyproject."""
        import pathlib
        import re
        from repro import __version__
        pyproject = (pathlib.Path(__file__).parents[1]
                     / "pyproject.toml").read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert not re.search(r'(?m)^version\s*=\s*"', pyproject)
        from repro._version import __version__ as canonical
        assert __version__ == canonical


class TestDelay:
    def test_falling_scalar(self, capsys):
        assert main(["delay", "--delta", "10", "--delta", "0"]) == 0
        out = capsys.readouterr().out
        assert "nor2 falling MIS delays" in out
        assert "+10.00" in out

    def test_nor3_vector(self, capsys):
        assert main(["delay", "--gate", "nor3", "--delta",
                     "0,5", "--direction", "rising"]) == 0
        out = capsys.readouterr().out
        assert "nor3 rising MIS delays" in out

    def test_wrong_arity_is_a_cli_error(self, capsys):
        assert main(["delay", "--gate", "nor3", "--delta", "10"]) == 2
        assert "sibling offset" in capsys.readouterr().err

    def test_bad_delta_is_a_cli_error(self, capsys):
        assert main(["delay", "--delta", "ten"]) == 2
        assert "bad --delta" in capsys.readouterr().err


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig7", "table1", "faithfulness",
                     "delay", "version"):
            assert name in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "VO(1, 1)" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "delta_min = 18.00 ps" in out

    def test_analytic(self, capsys):
        assert main(["analytic"]) == 0
        assert "eq (8)" in capsys.readouterr().out

    def test_fig5_model_only(self, capsys):
        assert main(["fig5"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_fig5_reference_engine_matches_vectorized(self, capsys):
        assert main(["fig5", "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        assert main(["fig5", "--engine", "vectorized"]) == 0
        vectorized = capsys.readouterr().out
        assert reference == vectorized

    def test_engines_command(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "vectorized" in out
        assert "reference" in out
        assert "points/s" in out
        assert "4096-point" in out
        # The grid size is not a CLI option: the sweep is a fixed-size
        # experiment (benchmarks call experiment_engines directly).
        with pytest.raises(SystemExit) as exit_info:
            main(["engines", "--points", "8"])
        assert exit_info.value.code == 2
        assert "--points" in capsys.readouterr().err

    def test_faithfulness(self, capsys):
        assert main(["faithfulness"]) == 0
        assert "Short-pulse" in capsys.readouterr().out

    def test_characterize_then_inspect_round_trip(self, capsys,
                                                  tmp_path):
        """`repro characterize` -> JSON -> `repro library` inspect."""
        out_path = tmp_path / "gates.json"
        assert main(["characterize", "--out", str(out_path),
                     "--core-points", "129", "--state-points",
                     "3"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "nor2_paper" in out
        assert out_path.exists()

        assert main(["library", str(out_path)]) == 0
        listing = capsys.readouterr().out
        for cell in ("nor2_paper", "nor2_paper_no_dmin",
                     "nand2_paper", "nand2_paper_no_dmin"):
            assert cell in listing

        assert main(["library", str(out_path), "--cell",
                     "nand2_paper", "--verify"]) == 0
        detail = capsys.readouterr().out
        assert "delta_fall" in detail
        assert "verify" in detail

    def test_library_experiment_without_path(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "Library characterization" in out
        assert "acceptance" in out

    def test_library_missing_file_is_a_cli_error(self, capsys,
                                                 tmp_path):
        assert main(["library", str(tmp_path / "nope.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_library_foreign_json_is_a_cli_error(self, capsys,
                                                 tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        assert main(["library", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_library_unknown_cell_lists_available(self, capsys,
                                                  tmp_path):
        out_path = tmp_path / "gates.json"
        assert main(["characterize", "--out", str(out_path),
                     "--core-points", "65", "--state-points",
                     "2"]) == 0
        capsys.readouterr()
        assert main(["library", str(out_path), "--cell",
                     "nroz"]) == 2
        assert "available" in capsys.readouterr().err


class TestSta:
    def test_report(self, capsys):
        assert main(["sta"]) == 0
        out = capsys.readouterr().out
        assert "STA report" in out
        assert "critical path" in out
        assert "Δ" in out

    def test_required_enables_slack(self, capsys):
        assert main(["sta", "--circuit", "nor2", "--required",
                     "200"]) == 0
        out = capsys.readouterr().out
        assert "worst slack" in out

    def test_corner_sweep_and_json(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "sta.json"
        assert main(["sta", "--circuit", "chain", "--corners", "16",
                     "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "corner sweep: 16 corners" in out
        assert f"wrote {out_path}" in out
        payload = json.loads(out_path.read_text())
        assert payload["schema"] == "repro.api/1"
        assert payload["kind"] == "sta_result"
        analysis = payload["data"]["analysis"]
        assert analysis["sweep"]["corners"] == 16
        assert len(analysis["sweep"]["worst_arrival_s"]) == 16
        assert analysis["paths"]

    def test_json_to_stdout_round_trips(self, capsys):
        from repro.api import StaRunResult, from_json
        assert main(["sta", "--circuit", "nor2", "--json"]) == 0
        out = capsys.readouterr().out
        result = from_json(out)
        assert isinstance(result, StaRunResult)
        assert result.circuit == "nor2"
        assert "STA report" in result.text

    def test_validate_runs_cross_check(self, capsys):
        assert main(["sta", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "event simulation" in out

    def test_library_backed_run(self, capsys, tmp_path):
        lib_path = tmp_path / "gates.json"
        assert main(["characterize", "--out", str(lib_path),
                     "--core-points", "129", "--state-points",
                     "2"]) == 0
        capsys.readouterr()
        assert main(["sta", "--circuit", "nor2", "--library",
                     str(lib_path), "--cell", "nor2_paper"]) == 0
        out = capsys.readouterr().out
        assert "[table]" in out


class TestErrorExitCodes:
    """Unknown gate/engine/library names: exit code 2, one line,
    no traceback (ISSUE 3 satellite)."""

    def test_unknown_engine(self, capsys):
        assert main(["sta", "--engine", "gpu"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "unknown delay engine" in err
        assert "available" in err

    def test_unknown_circuit(self, capsys):
        assert main(["sta", "--circuit", "nor99"]) == 2
        err = capsys.readouterr().err
        assert "unknown circuit" in err
        assert "Traceback" not in err

    def test_unknown_library_cell(self, capsys, tmp_path):
        lib_path = tmp_path / "gates.json"
        assert main(["characterize", "--out", str(lib_path),
                     "--core-points", "65", "--state-points",
                     "2"]) == 0
        capsys.readouterr()
        assert main(["sta", "--library", str(lib_path), "--cell",
                     "nroz"]) == 2
        err = capsys.readouterr().err
        assert "available" in err

    def test_library_without_cell(self, capsys, tmp_path):
        assert main(["sta", "--library", str(tmp_path / "x.json")]) \
            == 2
        assert "--cell" in capsys.readouterr().err

    def test_missing_library_file(self, capsys, tmp_path):
        assert main(["sta", "--library",
                     str(tmp_path / "nope.json"), "--cell",
                     "nor2_paper"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestMultiInput:
    def test_parser_options(self, capsys):
        args = build_parser().parse_args(
            ["multi_input", "--engine", "reference"])
        assert args.engine == "reference"
        # Gate width and grid size are not CLI options: the probe is a
        # fixed NOR3 experiment (benchmarks call
        # experiment_multi_input directly).
        for argv in (["multi_input", "--gate", "nor4"],
                     ["multi_input", "--points", "9"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert argv[1] in capsys.readouterr().err

    def test_experiment_runs(self, capsys):
        assert main(["multi_input"]) == 0
        out = capsys.readouterr().out
        assert "NOR3" in out
        assert "n=2 reduction" in out
        assert "speedup" in out

    def test_listed(self, capsys):
        assert main(["list"]) == 0
        assert "multi_input" in capsys.readouterr().out

    def test_characterize_nor3_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "nor3.json"
        assert main(["characterize", "--gate", "nor3",
                     "--core-points", "17", "--out",
                     str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "nor3_paper" in out
        assert out_path.exists()
        assert main(["library", str(out_path), "--cell",
                     "nor3_paper", "--verify"]) == 0
        detail = capsys.readouterr().out
        assert "Δ-vector surface" in detail
        assert "verify" in detail

    def test_characterize_nor3_rejects_state_points(self, capsys):
        assert main(["characterize", "--gate", "nor3",
                     "--state-points", "3"]) == 2
        assert "--state-points" in capsys.readouterr().err

    def test_sta_nor3_circuit(self, capsys):
        assert main(["sta", "--circuit", "nor3_mixed", "--top",
                     "1"]) == 0
        out = capsys.readouterr().out
        assert "STA report" in out
        assert "nor3_mixed" in out

    def test_sta_nor3_corners(self, capsys):
        assert main(["sta", "--circuit", "nor3", "--corners",
                     "8"]) == 0
        out = capsys.readouterr().out
        assert "corner sweep: 8 corners" in out


class TestTraceFlag:
    """``--trace PATH``: span JSONL written, startup time covered."""

    def test_trace_writes_startup_and_run_roots(self, capsys,
                                                tmp_path):
        from repro.obs.trace import read_jsonl
        path = tmp_path / "spans.jsonl"
        assert main(["delay", "--delta", "10", "--trace",
                     str(path)]) == 0
        assert f"wrote trace spans to {path}" in \
            capsys.readouterr().err
        records = read_jsonl(path)
        by_name = {r["name"]: r for r in records}
        assert by_name["cli.startup"]["parent"] is None
        assert by_name["cli.startup"]["dur_s"] > 0.0
        assert by_name["cli.run"]["parent"] is None
        assert by_name["cli.run"]["attrs"]["command"] == "delay"
        assert by_name["session.run"]["parent"] \
            == by_name["cli.run"]["id"]

    def test_trace_flag_does_not_leak_into_later_runs(self, capsys,
                                                      tmp_path):
        from repro.obs.trace import active_tracer
        path = tmp_path / "spans.jsonl"
        assert main(["version", "--trace", str(path)]) == 0
        capsys.readouterr()
        assert active_tracer() is None
        assert main(["version"]) == 0
