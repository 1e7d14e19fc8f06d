"""aadetect: auto-associative anomaly detection for network traffic.

Train a deep random network to reconstruct benign traffic metrics; flag
traffic whose reconstruction gap exceeds a data-driven threshold. Works on a
single aggregate stream (3 sliding-window metrics), on pre-extracted feature
rows, and per device (6 directional metrics with infection-level tracking).
Supports offline fits and windowed incremental online learning that is
exactly equivalent to the batch fit over the same rows.
"""

from .aadrnn import (ActivationParams, AadrnnModel, AadrnnShape, activation,
                     init_hidden_weights, model_from_json, model_to_json)
from .config import Config, apply_overrides, config_from_dict, load_config
from .detector import (Decision, Detector, LifecycleError, Mode, Phase, classify,
                       decision_value, load_state, save_state, simple_threshold_baseline,
                       whisker_threshold)
from .devices import (DeviceBank, DeviceRecord, DeviceReportRow, InfectionReport,
                      infection_level)
from .evaluation import (CompareResult, ConfusionCounts, EvalReport, RunResult,
                         align_with_trace, compare_online_offline, emit_plot_data,
                         read_decision_log, replay, run, score)
from .metrics import (DimensionError, DirectionalMetrics, MetricConfig, MetricVector,
                      MinMaxScaler, ScalingFactors, StreamMetrics, fit_scaling, min_max_fit,
                      normalize)
from .traffic import (AttackSegment, FeatureRow, PacketRecord, TimestampOrderError,
                      Trace, TraceParseError, TraceSpec, load_feature_dataset,
                      load_trace, save_feature_dataset, save_trace, synth_trace)
from .training import (SufficientStats, TrainConfig, TrainingError, corrupt, fit_batch,
                       fit_batch_with_stats, noise_rng, solve_readout, update_incremental)

__version__ = "0.1.0"
