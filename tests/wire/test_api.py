"""The ``wire`` workflow end to end: envelope, handler, CLI.

``WireRequest`` must run through :class:`repro.api.Session`, return a
typed :class:`WireResult` whose fields are mutually consistent, and be
reachable from the command line with kΩ/fF unit conversion.
"""

import json

import pytest

from repro.api import Session, WireRequest, WireResult, from_json
from repro.cli import build_parser, main, request_from_args
from repro.errors import ParameterError
from repro.units import FF, PS


class TestHandler:
    def test_line_two_pole_defaults(self):
        result = Session().run(WireRequest())
        assert isinstance(result, WireResult)
        assert result.topology == "line"
        assert result.sinks == ("n3",)
        assert len(result.delays) == len(result.sinks)
        assert len(result.slews) == len(result.sinks)
        assert all(d > 0.0 for d in result.delays)
        # Two-pole 50 % crossing sits below the Elmore mean.
        assert result.delays[0] < result.elmore[0]
        assert result.total_capacitance == pytest.approx(1.2e-15)
        assert result.corners == 0
        assert result.corner_delay_min is None
        assert result.max_error is None

    def test_fanout_sinks_are_symmetric(self):
        result = Session().run(
            WireRequest(topology="fanout", branches=3, stages=2))
        assert len(result.sinks) == 3
        assert result.delays[0] == pytest.approx(result.delays[1])
        assert result.delays[0] == pytest.approx(result.delays[2])

    def test_corner_sweep_brackets_nominal(self):
        result = Session().run(WireRequest(corners=32, seed=7))
        assert result.corners == 32
        worst = max(result.delays)
        assert result.corner_delay_min < worst < result.corner_delay_max
        assert f"32 R/C corners" in result.text

    def test_corner_sweep_is_seeded(self):
        one = Session().run(WireRequest(corners=8, seed=1))
        two = Session().run(WireRequest(corners=8, seed=1))
        other = Session().run(WireRequest(corners=8, seed=2))
        assert one.corner_delay_max == two.corner_delay_max
        assert one.corner_delay_max != other.corner_delay_max

    @pytest.mark.parametrize("model,tol", [("elmore", 5e-15),
                                           ("two_pole", 150e-15)])
    def test_validate_cross_checks_against_spice(self, model, tol):
        result = Session().run(
            WireRequest(stages=3, model=model, validate=True))
        assert result.max_error is not None
        assert result.max_error < tol
        assert "cross-validation" in result.text

    def test_unknown_topology_rejected(self):
        with pytest.raises(ParameterError, match="unknown wire"):
            Session().run(WireRequest(topology="mesh"))

    def test_unknown_model_rejected(self):
        with pytest.raises(ParameterError, match="unknown wire model"):
            Session().run(WireRequest(model="pade"))

    def test_result_envelope_round_trips(self):
        result = Session().run(WireRequest(corners=4, validate=True))
        assert from_json(result.to_json()) == result

    def test_wire_is_a_described_workflow(self):
        from repro.api import DescribeRequest
        described = Session().run(DescribeRequest())
        assert "wire" in described.workflows

    def test_fanout_reads_every_sink_in_one_pass(self, monkeypatch):
        """A by-name sink lookup scans every sink, so one per sink made
        the handler quadratic in its fanout."""
        from repro.wire.model import WireTiming

        calls = []
        lookup = WireTiming.timing
        monkeypatch.setattr(WireTiming, "timing",
                            lambda self, sink: calls.append(sink)
                            or lookup(self, sink))
        result = Session().run(WireRequest(
            topology="fanout", branches=2000, stages=1, model="elmore"))
        assert calls == []
        assert len(result.elmore) == len(result.sinks) == 2000
        # Elmore is the selected model, so its delay is the Elmore one.
        assert result.elmore == result.delays


class TestCli:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["wire"])
        request = request_from_args(args)
        default = WireRequest()
        assert request.topology == default.topology
        assert request.stages == default.stages
        assert request.model == default.model
        assert request.resistance == pytest.approx(default.resistance)
        assert request.capacitance == pytest.approx(
            default.capacitance)
        assert request.corners == 0 and request.validate is False

    def test_unit_conversion(self):
        args = build_parser().parse_args(
            ["wire", "--stages", "4", "--resistance", "1.5",
             "--capacitance", "0.8", "--sink-load", "2.0"])
        request = request_from_args(args)
        assert request.stages == 4
        assert request.resistance == pytest.approx(1.5e3)
        assert request.capacitance == pytest.approx(0.8 * FF)
        assert request.sink_load == pytest.approx(2.0 * FF)

    def test_topology_and_model_choices(self):
        args = build_parser().parse_args(
            ["wire", "--topology", "fanout", "--branches", "3",
             "--model", "elmore", "--corners", "16", "--seed", "9",
             "--validate"])
        request = request_from_args(args)
        assert request.topology == "fanout"
        assert request.branches == 3
        assert request.model == "elmore"
        assert request.corners == 16
        assert request.seed == 9
        assert request.validate is True

    def test_bad_choices_are_cli_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wire", "--topology", "mesh"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wire", "--model", "pade"])

    def test_human_output(self, capsys):
        assert main(["wire", "--corners", "4"]) == 0
        out = capsys.readouterr().out
        assert "wire 'line'" in out
        assert "R/C corners" in out

    def test_json_output_decodes(self, capsys):
        assert main(["wire", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "wire_result"
        assert isinstance(from_json(payload), WireResult)

    def test_stats_per_instance_flag(self):
        args = build_parser().parse_args(
            ["stats", "--method", "yield", "--per-instance"])
        request = request_from_args(args)
        assert request.per_instance is True
        default = request_from_args(
            build_parser().parse_args(["stats", "--method", "yield"]))
        assert default.per_instance is False
