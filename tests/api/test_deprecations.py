"""The retired legacy entry points stay retired.

The module-level experiment registry gave way to the session facade
(:mod:`repro.api`), the STA JSON alias to :func:`repro.sta.sta_payload`,
the hand-stamped cell builders to :func:`repro.spice.stamp_gate` /
:func:`repro.spice.build_gate`, and the per-gate analog MIS
measurements to :func:`repro.analysis.mis_delay`.  The engine registry
gave way to the two fixed backends, the per-kind block packers and
readers to :func:`repro.core.multi_input.block_from_parameters` /
:func:`~repro.core.multi_input.parameters_at`, and the n-input model's
batch and sweep methods to its kernel and the engine seam; no old name
resolves any more.
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
        *((module, "register_engine")
          for module in ("repro", "repro.engine", "repro.engine.base")),
        ("repro.engine.base", "_FACTORIES"),
        ("repro.engine.base", "_INSTANCES"),
        ("repro.engine.base", "_two_input"),
        ("repro.engine.blocks", "block_from_parameters"),
        ("repro.sta.arcs", "_as_block"),
        *(("repro.core.multi_input", name)
          for name in ("generalized_block", "generalized_record",
                       "compiled_nor_kernel")),
        ("repro.core.multi_input.GeneralizedNorParameters",
         "from_two_input"),
        *(("repro.core.multi_input.GeneralizedNorModel", name)
          for name in ("delays_falling_batch", "delays_rising_batch",
                       "_sweep", "delays_falling_sweep",
                       "delays_rising_sweep")),
        ("repro.obs.metrics.MetricsRegistry", "describe"),
    ])
    def test_name_is_gone(self, module, name):
        import importlib
        try:
            owner = importlib.import_module(module)
        except ImportError:
            module, attribute = module.rsplit(".", 1)
            owner = getattr(importlib.import_module(module), attribute)
        with pytest.raises(AttributeError):
            getattr(owner, name)

    @pytest.mark.parametrize("module,function,keywords", [
        ("repro.server", "serve", ("quiet",)),
        ("repro.core.multi_input", "delta_vector_grid", ("span_taus",)),
        ("repro.core.multi_input", "GeneralizedNorModel.resting_state",
         ("floating_value",)),
        ("repro.analysis.characterization", "toggle_sis_delays",
         ("dwell",)),
        ("repro.analysis.faithfulness", "short_pulse_filtration",
         ("base_time",)),
        ("repro.core.parametrization",
         "falling_feasible_without_pure_delay", ("tolerance",)),
        ("repro.spice.dc", "newton_solve", ("vtol", "itol")),
    ])
    def test_keyword_is_gone(self, module, function, keywords):
        """Options no caller set are constants now."""
        import importlib
        import inspect
        target = importlib.import_module(module)
        for part in function.split("."):
            target = getattr(target, part)
        parameters = inspect.signature(target).parameters
        assert not set(keywords) & set(parameters)

    def test_engine_names_resolve_from_one_fixed_table(self):
        from repro.engine import available_engines, get_engine
        assert available_engines() == ("reference", "vectorized")
        with pytest.raises(ValueError, match="unknown delay engine"):
            get_engine("chunked")

    def test_sta_exports_only_the_payload(self):
        import repro.sta
        assert "result_to_json" not in repro.sta.__all__
        assert "sta_payload" in repro.sta.__all__
