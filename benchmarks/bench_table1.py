"""Table I — least-squares parametrization from the paper's values.

Benchmarks the full fit (δ_min inference + bounded least squares) and
compares the fitted electrical parameters against the printed Table I.
"""

import pytest

from repro.analysis.experiments import experiment_table1
from repro.analysis.fitting import fit_from_paper_values
from repro.core.parameters import PAPER_TABLE_I
from repro.units import PS, to_ps


def test_table1_fit(benchmark, write_result):
    fit = benchmark(lambda: fit_from_paper_values(co=PAPER_TABLE_I.co))

    result = experiment_table1()
    write_result("table1", result.text)

    benchmark.extra_info.update({
        "delta_min_ps": round(to_ps(fit.params.delta_min), 2),
        "max_target_error_ps": round(to_ps(fit.max_error), 3),
        "r3_ratio_vs_paper": round(fit.params.r3 / PAPER_TABLE_I.r3, 3),
        "r4_ratio_vs_paper": round(fit.params.r4 / PAPER_TABLE_I.r4, 3),
        "cn_ratio_vs_paper": round(fit.params.cn / PAPER_TABLE_I.cn, 3),
    })

    # The ratio-2 rule reproduces the paper's 18 ps exactly.
    assert fit.params.delta_min == pytest.approx(18 * PS)
    # All six characteristic targets are matched closely.
    assert fit.max_error < 0.25 * PS
    # The nMOS-side parameters land on the paper's values; the
    # (R1, R2, C_N) subspace is degenerate (see `regularization` in
    # `fit_nor_parameters`) but the total p-path resistance matches too.
    assert fit.params.r3 == pytest.approx(PAPER_TABLE_I.r3, rel=0.10)
    assert fit.params.r4 == pytest.approx(PAPER_TABLE_I.r4, rel=0.10)
    assert fit.params.r1 + fit.params.r2 == pytest.approx(
        PAPER_TABLE_I.r1 + PAPER_TABLE_I.r2, rel=0.05)
    assert fit.params.cn == pytest.approx(PAPER_TABLE_I.cn, rel=0.25)


def test_table1_infeasibility_without_pure_delay(benchmark,
                                                 write_result):
    """The paper's impossibility observation: without δ_min the
    falling characteristic values cannot be fitted."""
    from repro.analysis.fitting import PAPER_FIG2_TARGETS
    from repro.core.parametrization import (
        falling_feasible_without_pure_delay, fit_nor_parameters)

    assert not falling_feasible_without_pure_delay(
        PAPER_FIG2_TARGETS.falling)

    fit = benchmark(lambda: fit_nor_parameters(
        PAPER_FIG2_TARGETS, delta_min=0.0, co=PAPER_TABLE_I.co))

    write_result("table1_no_dmin", "\n".join(
        f"{name}: target {t:.2f} ps, achieved {a:.2f} ps"
        for name, t, a in fit.table()))
    benchmark.extra_info["max_error_ps"] = round(to_ps(fit.max_error),
                                                 2)
    assert fit.max_error > 1.0 * PS
