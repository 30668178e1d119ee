"""Tests for repro.analysis.faithfulness and repro.analysis.reporting."""

import math

import numpy as np
import pytest

from repro.analysis.faithfulness import (perturbation_sensitivity,
                                         short_pulse_filtration)
from repro.analysis.reporting import (ascii_table, format_bar_chart,
                                      format_curve, format_curves)
from repro.core import PAPER_TABLE_I
from repro.core.charlie import MisCurve
from repro.errors import ParameterError
from repro.timing.channels import (HybridNorChannel,
                                   InertialDelayChannel)
from repro.timing.gates import gate_function, zero_time_gate
from repro.timing.trace import DigitalTrace
from repro.units import PS


def inertial_nor_model(delay):
    channel = InertialDelayChannel(delay)
    nor = gate_function("nor")

    def run(a, b):
        return channel.apply(zero_time_gate(nor, [a, b]))

    return run


class TestShortPulseFiltration:
    def test_hybrid_output_shrinks_continuously(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        widths = [w * PS for w in (120, 60, 40, 30, 25, 22)]
        responses = short_pulse_filtration(channel.simulate, widths)
        out_widths = [r.output_width for r in responses]
        nonzero = [w for w in out_widths if w > 0.0]
        assert len(nonzero) >= 4
        assert nonzero == sorted(nonzero, reverse=True)
        # Continuity: the smallest surviving output pulse is small.
        assert nonzero[-1] < 25 * PS

    def test_inertial_is_discontinuous(self):
        model = inertial_nor_model(38 * PS)
        widths = [w * PS for w in (120, 60, 39, 37, 20)]
        responses = short_pulse_filtration(model, widths)
        out_widths = [r.output_width for r in responses]
        # Same width until the cutoff, then suddenly nothing.
        assert out_widths[2] == pytest.approx(39 * PS)
        assert out_widths[3] == 0.0

    def test_transitions_counted(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        responses = short_pulse_filtration(channel.simulate,
                                           [200 * PS, 2 * PS])
        assert responses[0].transitions == 2
        assert responses[1].transitions == 0

    def test_bad_width(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        with pytest.raises(ParameterError):
            short_pulse_filtration(channel.simulate, [0.0])


class TestPerturbationSensitivity:
    def test_hybrid_sensitivity_is_finite_and_modest(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        a = DigitalTrace.from_edges(0, [300 * PS, 800 * PS])
        b = DigitalTrace.constant(0)
        sensitivity = perturbation_sensitivity(channel.simulate, a, b,
                                               epsilon=0.05 * PS)
        assert math.isfinite(sensitivity)
        assert sensitivity < 3.0

    def test_inertial_discontinuity_detected(self):
        """Perturbing across the filter boundary changes the output
        transition count -> infinite sensitivity."""
        model = inertial_nor_model(38 * PS)
        a = DigitalTrace.from_edges(0, [300 * PS, 300 * PS + 38 * PS])
        b = DigitalTrace.constant(0)
        sensitivity = perturbation_sensitivity(model, a, b,
                                               epsilon=1.0 * PS,
                                               transition_index=1)
        assert math.isinf(sensitivity)

    def test_validation(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        empty = DigitalTrace.constant(0)
        with pytest.raises(ParameterError):
            perturbation_sensitivity(channel.simulate, empty, empty)

    def test_index_validation(self):
        channel = HybridNorChannel(PAPER_TABLE_I)
        a = DigitalTrace.from_edges(0, [300 * PS])
        with pytest.raises(ParameterError):
            perturbation_sensitivity(channel.simulate, a,
                                     DigitalTrace.constant(0),
                                     transition_index=5)


class TestReporting:
    def test_ascii_table_basic(self):
        text = ascii_table(["a", "b"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0]
        assert "333" in lines[3]  # header, separator, row1, row2

    def test_ascii_table_title(self):
        text = ascii_table(["x"], [["1"]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_ascii_table_row_length_checked(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [["only one"]])

    def test_ascii_table_float_formatting(self):
        text = ascii_table(["v"], [[1.23456789]])
        assert "1.235" in text

    # The exact strings below are what the table renderer printed
    # before it built its lines from one format string.

    def test_ascii_table_empty_rows(self):
        assert ascii_table(["a", "bb"], []) == "a | bb\n--+---"
        assert ascii_table(["x"], [], title="T") == "T\nx\n-"
        assert ascii_table([], [[], []]) == "\n\n\n"

    def test_ascii_table_float_cells(self):
        text = ascii_table(["v", "w"], [[1.23456789, 2e-13],
                                        [0.5, math.inf],
                                        [-0.0, math.nan]])
        assert text == ("v     | w    \n------+------\n"
                        "1.235 | 2e-13\n0.5   | inf  \n-0    | nan  ")

    def test_ascii_table_non_str_cells(self):
        class Label(str):
            pass

        text = ascii_table(
            ["n", "flag", "none", "np", "s"],
            [[3, True, None, np.float64(1.23456), Label("ab")],
             (12345, False, (1, 2), np.int64(7), "x")])
        assert text == (
            "n     | flag  | none   | np    | s \n"
            "------+-------+--------+-------+---\n"
            "3     | True  | None   | 1.235 | ab\n"
            "12345 | False | (1, 2) | 7     | x ")

    def test_format_curve(self):
        curve = MisCurve.from_arrays([-1e-12, 1e-12],
                                     [30e-12, 31e-12], "falling",
                                     label="test")
        text = format_curve(curve)
        assert "30.00" in text
        assert "delta [ps]" in text

    def test_format_curves_union_grid(self):
        c1 = MisCurve.from_arrays([-1e-12, 1e-12], [30e-12, 31e-12],
                                  "falling", label="one")
        c2 = MisCurve.from_arrays([0.0, 2e-12], [29e-12, 32e-12],
                                  "falling", label="two")
        text = format_curves([c1, c2])
        assert "one" in text and "two" in text
        assert "-" in text  # out-of-support marker

    def test_format_curves_empty(self):
        with pytest.raises(ValueError):
            format_curves([])

    def test_format_bar_chart(self):
        text = format_bar_chart(["alpha", "b"], [1.0, 0.5],
                                title="Chart")
        lines = text.splitlines()
        assert lines[0] == "Chart"
        assert lines[1].count("#") > lines[2].count("#")

    def test_format_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            format_bar_chart(["a"], [1.0, 2.0])
