"""NAND2 duality — the paper's model generalized by CMOS mirroring.

The mirrored hybrid model predicts the NAND2's MIS landscape: a rising
speed-up from the parallel pMOS pair and a falling slow-down/order
dependence from the series nMOS stack — Fig. 2 reflected about Vth.
Verified against the analog NAND2 cell of the same technology card.
"""

from repro.analysis.characterization import mis_delay
from repro.core import HybridNandModel, HybridNorModel, PAPER_TABLE_I
from repro.spice.technology import FINFET15
from repro.units import PS, to_ps


def test_nand_duality(benchmark, write_result):
    deltas = (-400, 0, 400)

    def kernel():
        return {direction: {d: mis_delay(FINFET15, "nand", d * PS,
                                         direction)
                            for d in deltas}
                for direction in ("rising", "falling")}

    analog = benchmark.pedantic(kernel, rounds=1, iterations=1)

    nand = HybridNandModel(PAPER_TABLE_I)
    nor = HybridNorModel(PAPER_TABLE_I)
    rising = analog["rising"]
    falling = analog["falling"]
    speedup = 100 * (rising[0] / min(rising[-400], rising[400]) - 1)
    lines = [
        "Analog NAND2 (FINFET15) vs the mirrored hybrid model",
        f"rising  d(-inf)/d(0)/d(+inf): {to_ps(rising[-400]):.2f} / "
        f"{to_ps(rising[0]):.2f} / {to_ps(rising[400]):.2f} ps  "
        f"(MIS speed-up {speedup:+.1f} %, NOR falling mirror)",
        f"falling d(-inf)/d(0)/d(+inf): {to_ps(falling[-400]):.2f} / "
        f"{to_ps(falling[0]):.2f} / {to_ps(falling[400]):.2f} ps  "
        "(slow-down + order dependence, NOR rising mirror)",
        "",
        "model identities (exact by construction, tested):",
        f"  NAND rising(0)  == NOR falling(0)  == "
        f"{to_ps(nand.delay_rising_zero()):.2f} ps",
        f"  NAND falling(0) == NOR rising(0)|VN=GND == "
        f"{to_ps(nand.delay_falling(0.0)):.2f} ps",
    ]
    write_result("nand_duality", "\n".join(lines))

    benchmark.extra_info["rising_mis_pct"] = round(speedup, 1)

    # The analog NAND exhibits the mirrored Charlie landscape.
    assert rising[0] < min(rising[-400], rising[400])   # speed-up
    assert falling[0] > min(falling[-400], falling[400])  # slow-down
    # And the model identities hold.
    assert nand.delay_rising_zero() == nor.delay_falling_zero()
