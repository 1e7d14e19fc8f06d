"""Run configuration: one JSON file, four sections, strict keys and types.

Defaults apply for absent keys; unknown sections or keys are rejected.
``--set section.key=value`` overrides parse values as JSON where possible
(so ``true``, ``3``, ``0.5``, ``null`` and ``[0.2,0.3,0.5]`` all work) and
fall back to plain strings.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)


class MetricsSection(NamedTuple):
    N: int = 10
    T_seconds: float = 10.0
    gamma: Optional[List[float]] = None

    @property
    def T_us(self) -> int:
        """The T window in whole microseconds, the unit the metrics count in."""
        return int(round(self.T_seconds * 1e6))


class TrainSection(NamedTuple):
    noise_sigma: float = 0.1
    ridge_lambda: float = 1e-4
    window_len: Optional[int] = 500
    window_seconds: Optional[float] = None
    seed: int = 0
    init_len: int = 1000
    init_seconds: Optional[float] = None


class ThresholdSection(NamedTuple):
    mode: str = "whisker"  # "whisker" or "fixed"
    value: Optional[float] = None
    freeze_after_init: bool = False


class DeviceSection(NamedTuple):
    alpha: float = 0.1
    level_threshold: float = 0.5
    hysteresis_k: int = 3
    ttl_seconds: float = 3600.0
    init_len: int = 200
    window_seconds: Optional[float] = 30.0
    threshold_scale: float = 8.0


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _at_least(bound: int) -> Tuple[Callable[[Any], bool], str]:
    return (lambda v: v >= bound), f"be >= {bound}"


_POSITIVE = (lambda v: v > 0), "be positive"
# What a key's value must also be once its type is right (null always passes).
_RULES: Dict[str, Tuple[Callable[[Any], bool], str]] = {
    "metrics.N": _at_least(2),
    "metrics.gamma": ((lambda v: all(g > 0 for g in v)), "hold positive weights"),
    "train.noise_sigma": _at_least(0),
    "train.ridge_lambda": _POSITIVE,
    "train.window_len": _at_least(1),
    "train.window_seconds": _POSITIVE,
    "train.seed": _at_least(0),
    "train.init_len": _at_least(4),
    "train.init_seconds": _at_least(0),
    "threshold.mode": ((lambda v: v in ("whisker", "fixed")), "be 'whisker' or 'fixed'"),
    "threshold.value": _POSITIVE,
    "device.alpha": ((lambda v: 0 < v <= 1), "be in (0, 1]"),
    "device.level_threshold": ((lambda v: 0 < v < 1), "be in (0, 1)"),
    "device.hysteresis_k": _at_least(1),
    "device.ttl_seconds": _POSITIVE,
    "device.init_len": _at_least(4),
    "device.window_seconds": _POSITIVE,
    "device.threshold_scale": _POSITIVE,
}


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


class Config(NamedTuple):
    """A run's configuration, unchecked until ``validate`` (``config_from_dict``, ``Detector``)."""

    metrics: MetricsSection = MetricsSection()
    train: TrainSection = TrainSection()
    threshold: ThresholdSection = ThresholdSection()
    device: DeviceSection = DeviceSection()

    def validate(self) -> Config:
        """The config itself, unless a section has the wrong class or a value the wrong type
        or range: an error names the section or the key."""
        for name, section in zip(self._fields, self):
            if not isinstance(section, _SECTIONS[name]):
                raise ValueError(f"config section {name!r} must be a {_SECTIONS[name].__name__}, "
                                 f"got {type(section).__name__}")
            for attr, value in zip(section._fields, section):
                key = f"{name}.{attr}"
                _check_type(key, value, _HINTS[name][attr])
                for v in value if isinstance(value, (list, tuple)) else (value,):
                    if isinstance(v, float) and not math.isfinite(v):
                        raise ValueError(f"{key} must be finite, got {v!r}")
                if value is not None and key in _RULES and not _RULES[key][0](value):
                    raise ValueError(f"{key} must {_RULES[key][1]}, got {value!r}")
        if self.metrics.N >= 2**63:  # a packet count it is compared with is an int64
            raise ValueError(f"metrics.N must be below 2**63, got {self.metrics.N}")
        if self.metrics.T_us < 1:
            raise ValueError("metrics.T_seconds must round to at least 1 microsecond, "
                             f"got {self.metrics.T_seconds!r}")
        if self.metrics.gamma is not None:
            total = math.fsum(self.metrics.gamma)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"metrics.gamma must sum to 1, got {total!r}")
        if self.threshold.mode == "fixed" and self.threshold.value is None:
            raise ValueError("threshold.mode 'fixed' requires threshold.value")
        return self

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        return {name: section._asdict() for name, section in zip(self._fields, self)}


# Each section's class, then each key's annotation, e.g. Optional[float]: what
# validate accepts.
_SECTIONS = get_type_hints(Config)
_HINTS = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


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
        bad = set(body) - set(cls._fields)
        if bad:
            raise ValueError(f"unknown key(s) in section {name!r}: {', '.join(sorted(bad))}")
        kwargs[name] = cls(**body)
    return Config(**kwargs).validate()


def load_config(path: Union[str, Path, None]) -> Config:
    """Load a config JSON file; None means all defaults. An error names the file."""
    if path is None:
        return Config()
    try:
        with open(path, encoding="utf-8") as fh:
            return config_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, too deep, or rejected by validate
        raise ValueError(f"{path}: {exc}") from None


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
        doc.setdefault(section, {})[name] = _coerce(value)
    return config_from_dict(doc)  # which rejects an unknown section or key
