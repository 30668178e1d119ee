"""Experiment orchestration: characterization, fitting, accuracy, probes."""

from .accuracy import (
    MODEL_LABELS,
    ConfigAccuracy,
    build_model_suite,
    evaluate_config,
    reference_output,
    run_accuracy_study,
)
from .characterization import (
    DEFAULT_DELTAS,
    SIS_SEPARATION,
    NorCharacterization,
    characterize_direction,
    characterize_nor,
    mis_delay,
    mis_waveforms,
)
from .faithfulness import (
    PulseResponse,
    perturbation_sensitivity,
    short_pulse_filtration,
)
from .fitting import (
    PAPER_FIG2_TARGETS,
    fit_from_characterization,
    fit_from_paper_values,
    fit_from_technology,
)
from .reporting import ascii_table, format_bar_chart, format_curve, format_curves

__all__ = [
    "DEFAULT_DELTAS",
    "MODEL_LABELS",
    "ConfigAccuracy",
    "NorCharacterization",
    "PAPER_FIG2_TARGETS",
    "PulseResponse",
    "SIS_SEPARATION",
    "ascii_table",
    "build_model_suite",
    "characterize_direction",
    "characterize_nor",
    "evaluate_config",
    "fit_from_characterization",
    "fit_from_paper_values",
    "fit_from_technology",
    "format_bar_chart",
    "format_curve",
    "format_curves",
    "mis_delay",
    "mis_waveforms",
    "perturbation_sensitivity",
    "reference_output",
    "run_accuracy_study",
    "short_pulse_filtration",
]
