"""Run configuration: one JSON file, five sections, strict keys and types.

Defaults apply for absent keys; unknown sections or keys are rejected.
``--set section.key=value`` overrides parse values as JSON where possible
(so ``true``, ``3``, ``0.5``, ``null`` and ``[0.2,0.3,0.5]`` all work) and
fall back to plain strings.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (Any, Dict, List, Optional, Sequence, Tuple, Union, get_args,
                    get_origin, get_type_hints)

from .metrics import MetricConfig
from .training import TrainConfig


@dataclass
class MetricsSection:
    N: int = 10
    T_seconds: float = 10.0
    gamma: Optional[List[float]] = None


@dataclass
class TrainSection:
    noise_sigma: float = 0.1
    ridge_lambda: float = 1e-4
    window_len: Optional[int] = 500
    window_seconds: Optional[float] = None
    seed: int = 0
    init_len: int = 1000
    init_seconds: Optional[float] = None


@dataclass
class ThresholdSection:
    mode: str = "whisker"  # "whisker" or "fixed"
    value: Optional[float] = None
    freeze_after_init: bool = False


@dataclass
class DeviceSection:
    alpha: float = 0.1
    level_threshold: float = 0.5
    hysteresis_k: int = 3
    ttl_seconds: float = 3600.0
    init_len: int = 200
    window_len: Optional[int] = None
    window_seconds: Optional[float] = 30.0
    threshold_scale: float = 8.0


@dataclass
class IoSection:
    decision_log: Optional[str] = None
    alerts: Optional[str] = None


_SECTIONS = {
    "metrics": MetricsSection,
    "train": TrainSection,
    "threshold": ThresholdSection,
    "device": DeviceSection,
    "io": IoSection,
}


# Each key's annotation, e.g. Optional[float]: what validate accepts.
_HINTS = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _is_kind(value: Any, kind: type) -> bool:
    """An int stands for a float; a bool is no number."""
    if kind is not bool and isinstance(value, bool):
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def _check_type(key: str, value: Any, hint: Any) -> None:
    """Reject a value of the wrong type, naming the key."""
    optional = type(None) in get_args(hint)
    if value is None and optional:
        return
    kind = get_args(hint)[0] if optional else hint
    if get_origin(kind) is list:  # gamma, the one list key: List[float]
        ok = isinstance(value, (list, tuple)) and all(_is_kind(v, float) for v in value)
        wanted = "a list of numbers"
    else:
        ok = _is_kind(value, kind)
        wanted = _KIND_NAMES[kind]
    if not ok:
        raise ValueError(f"{key} must be {wanted}{' or null' if optional else ''}, got {value!r}")


@dataclass
class Config:
    metrics: MetricsSection = field(default_factory=MetricsSection)
    train: TrainSection = field(default_factory=TrainSection)
    threshold: ThresholdSection = field(default_factory=ThresholdSection)
    device: DeviceSection = field(default_factory=DeviceSection)
    io: IoSection = field(default_factory=IoSection)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, hints in _HINTS.items():
            for key, value in vars(getattr(self, name)).items():
                _check_type(f"{name}.{key}", value, hints[key])
                for v in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(v, float) and not math.isfinite(v):
                        raise ValueError(f"{name}.{key} must be finite, got {v!r}")
        if self.threshold.mode not in ("whisker", "fixed"):
            raise ValueError(f"threshold.mode must be 'whisker' or 'fixed', got {self.threshold.mode!r}")
        if self.threshold.mode == "fixed" and self.threshold.value is None:
            raise ValueError("threshold.mode 'fixed' requires threshold.value")
        if self.threshold.value is not None and self.threshold.value <= 0:
            raise ValueError("threshold.value must be positive")
        for name in ("train", "device"):  # the two sources of detector policy
            policy = getattr(self, name)
            if policy.init_len < 4:
                raise ValueError(f"{name}.init_len must be >= 4")
            if policy.window_len is not None and policy.window_len < 1:
                raise ValueError(f"{name}.window_len must be >= 1")
            if policy.window_seconds is not None and policy.window_seconds <= 0:
                raise ValueError(f"{name}.window_seconds must be positive")
        if not (0.0 < self.device.alpha <= 1.0):
            raise ValueError("device.alpha must be in (0, 1]")
        if not (0.0 < self.device.level_threshold < 1.0):
            raise ValueError("device.level_threshold must be in (0, 1)")
        if self.device.hysteresis_k < 1:
            raise ValueError("device.hysteresis_k must be >= 1")
        if self.device.ttl_seconds <= 0:
            raise ValueError("device.ttl_seconds must be positive")
        if self.device.threshold_scale <= 0:
            raise ValueError("device.threshold_scale must be positive")
        # Delegated validation: these constructors reject bad values.
        self.metric_config()
        self.train_config()

    def metric_config(self) -> MetricConfig:
        return MetricConfig.from_seconds(self.metrics.N, self.metrics.T_seconds,
                                         self.metrics.gamma)

    def train_config(self) -> TrainConfig:
        return TrainConfig(noise_sigma=self.train.noise_sigma,
                           ridge_lambda=self.train.ridge_lambda, seed=self.train.seed)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: dataclasses.asdict(getattr(self, name)) for name in _SECTIONS}

    def copy(self) -> "Config":
        return config_from_dict(self.to_dict())


def config_from_dict(doc: Dict[str, Any]) -> Config:
    """Build a Config from nested dicts, rejecting unknown sections and keys."""
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(doc) - set(_SECTIONS)
    if unknown:
        raise ValueError(f"unknown config section(s): {', '.join(sorted(unknown))}")
    kwargs = {}
    for name, cls in _SECTIONS.items():
        body = doc.get(name, {})
        if not isinstance(body, dict):
            raise ValueError(f"config section {name!r} must be an object")
        allowed = {f.name for f in fields(cls)}
        bad = set(body) - allowed
        if bad:
            raise ValueError(f"unknown key(s) in section {name!r}: {', '.join(sorted(bad))}")
        kwargs[name] = cls(**body)
    return Config(**kwargs)


def load_config(path: Union[str, Path, None]) -> Config:
    """Load a config JSON file; None means all defaults."""
    if path is None:
        return Config()
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(doc)


def _coerce(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def apply_overrides(config: Config, overrides: Sequence[str]) -> Config:
    """Apply ``section.key=value`` overrides on top of a config."""
    doc = config.to_dict()
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override must look like section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        if key.count(".") != 1:
            raise ValueError(f"override key must be section.key, got {key!r}")
        section, name = key.split(".")
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section: {section!r}")
        allowed = {f.name for f in fields(_SECTIONS[section])}
        if name not in allowed:
            raise ValueError(f"unknown key {name!r} in section {section!r}")
        doc[section][name] = _coerce(value)
    return config_from_dict(doc)
