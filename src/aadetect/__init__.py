"""aadetect: auto-associative anomaly detection for network traffic.

Train a deep random network to reconstruct benign traffic metrics; flag
traffic whose reconstruction gap exceeds a data-driven threshold. Works on a
single aggregate stream (3 sliding-window metrics), on pre-extracted feature
rows, and per device (6 directional metrics with infection-level tracking).
Supports offline fits and windowed incremental online learning that is
exactly equivalent to the batch fit over the same rows.

The names below are the ones the README documents; everything else is
imported from its module.
"""

from .config import Config, config_from_dict
from .detector import Detector, Mode, load_state, save_state
from .devices import DeviceBank
from .evaluation import compare_online_offline, replay, run
from .metrics import DirectionalMetrics, StreamMetrics
from .traffic import AttackSegment, FeatureTable, TraceSpec, synth_trace
from .training import fit_batch_with_stats, update_incremental

__version__ = "0.1.0"
