"""The retired legacy entry points stay retired.

The module-level experiment registry gave way to the session facade
(:mod:`repro.api`), the STA JSON alias to :func:`repro.sta.sta_payload`,
the hand-stamped cell builders to :func:`repro.spice.stamp_gate` /
:func:`repro.spice.build_gate`, and the per-gate analog MIS
measurements to :func:`repro.analysis.mis_delay`; no old name resolves
any more.
"""

import pytest


class TestExperimentsRegistry:
    def test_other_attributes_raise_attribute_error(self):
        from repro.analysis import experiments
        with pytest.raises(AttributeError):
            experiments.EXPERIMENT  # typo stays an error
        import repro.analysis
        with pytest.raises(AttributeError):
            repro.analysis.EXPERIMENT


class TestRemovedNames:
    @pytest.mark.parametrize("module,name", [
        ("repro.analysis", "EXPERIMENTS"),
        ("repro.analysis.experiments", "EXPERIMENTS"),
        ("repro.sta", "result_to_json"),
        *((module, name)
          for module in ("repro.spice", "repro.spice.technology")
          for name in ("build_nor2", "build_nand2", "build_inverter")),
        ("repro.wire", "stamp_nor2"),
        ("repro.wire.spice", "stamp_nor2"),
        *((module, name)
          for module in ("repro.analysis",
                         "repro.analysis.characterization")
          for name in ("nor_mis_delay", "nor_mis_waveforms",
                       "nand_mis_delay")),
        ("repro.library.tables", "GATE_TYPES"),
        ("repro.timing.circuit", "MIS_CHANNEL_TYPES"),
    ])
    def test_name_is_gone(self, module, name):
        import importlib
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    def test_sta_exports_only_the_payload(self):
        import repro.sta
        assert "result_to_json" not in repro.sta.__all__
        assert "sta_payload" in repro.sta.__all__
