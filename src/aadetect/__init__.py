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

import os as _os

# Every product here is M x M (M = 3, 6 or the feature width), so OpenBLAS
# worker threads only cost start-up and hand-off. OpenBLAS reads this variable
# once, as numpy loads it; a caller's value or an already loaded numpy is kept.
if "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .config import Config, config_from_dict
from .detector import Detector, Mode, load_state, save_state
from .devices import DeviceBank
from .evaluation import compare_online_offline, replay, run
from .metrics import DirectionalMetrics, StreamMetrics
from .traffic import AttackSegment, FeatureTable, TraceSpec, synth_trace
from .training import fit_batch_with_stats, update_incremental

__version__ = "0.1.0"
