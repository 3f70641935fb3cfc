"""Compound sequential change-point detection for parallel data streams.

Monitor K streams online, deactivate the ones that appear to have
changed, and control at every time point the expected fraction of
already-changed streams among those still active (the local false
non-discovery rate), while collecting as many useful observations as
possible.
"""

from .calibrate import (calibrate_thresholds, critical_time, lfnr_limit,
                        read_threshold_table, write_threshold_table)
from .detector import (DETECTOR_KINDS, AdaptiveDetector, CheckpointError,
                       DecisionTrace, DependentDetector, TableExhaustedError,
                       ThresholdDetector, ThresholdTable, checkpoint_state,
                       make_detector, one_step_rule, restore_state)
from .model import (INF, BernoulliPair, GaussianShift, GeometricPrior,
                    IIDModel, PartialDepModel, TabularModel,
                    conflicting_priors_model)
from .simulate import MetricsFrame, SimConfig, run_experiment, write_metrics_csv
from .verify import conflicting_priors_enumeration, dp_optimality_report

__version__ = "0.1.0"

# the public surface; posterior backends, metric helpers and the oracles
# stay in their modules
__all__ = [
    "calibrate_thresholds", "critical_time", "lfnr_limit", "read_threshold_table",
    "write_threshold_table", "DETECTOR_KINDS", "AdaptiveDetector", "CheckpointError",
    "DecisionTrace", "DependentDetector", "TableExhaustedError", "ThresholdDetector",
    "ThresholdTable", "checkpoint_state", "make_detector", "one_step_rule",
    "restore_state", "INF", "BernoulliPair", "GaussianShift", "GeometricPrior",
    "IIDModel", "PartialDepModel", "TabularModel", "conflicting_priors_model",
    "MetricsFrame", "SimConfig", "run_experiment", "write_metrics_csv",
    "conflicting_priors_enumeration", "dp_optimality_report",
]
