"""Per-device compromise monitoring.

Every address seen on the link gets its own 6-metric detector (transmitted
and received substreams). ``DeviceBank.ingest`` takes one packet tuple.
Until a device's init completes it is its substream metrics and a record of
its vectors packed as doubles (48 bytes each), with no ``Detector``: the
``device.init_len``-th vector builds the detector, fits it on them and is
not judged. From then on its detector judges each of the device's vectors,
and the device's infection level moves by an exponential moving average of
the decision value relative to the threshold it was judged against (the
one the decision records, not one a refit in the same ``observe`` set):

    level' = (1 - alpha) * level + alpha * min(d / theta_dev, 1)

A device is flagged compromised once its level has exceeded the configured
level threshold at ``hysteresis_k`` consecutive decisions (single-packet
flips are suppressed). Devices idle longer than the TTL are evicted; their
final state is kept for the report.

Per-device retraining is paced by stream time (``device.window_seconds``),
not by accepted-row count, and device init is always count-based. Counting
accepted rows would tie the adaptation cadence to the device's own traffic
rate — a flooding device would then complete windows hundreds of times
faster and drag its threshold up over its own attack. With time pacing a
device whose traffic is being rejected by the benign gate simply stops
learning until it looks benign again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import Config
from .detector import MODE_DIM, Decision, Detector, Mode, salt_for_address
from .metrics import DirectionalMetrics
from .traffic import Packet
from .training import TrainingError

DEVICE_DIM = MODE_DIM[Mode.DEVICE]
_EVICTION_CHECK_EVERY = 512


def infection_level(prev: float, d: float, alpha: float, threshold: float) -> float:
    """One EMA step of the infection level; saturates at d == threshold."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if threshold <= 0:
        raise ValueError(f"device threshold must be positive, got {threshold}")
    ratio = min(max(d, 0.0) / threshold, 1.0)
    return (1.0 - alpha) * prev + alpha * ratio


@dataclass(slots=True)
class DeviceRecord:
    """Mutable per-address monitoring state: ``init_rows`` until init
    completes, then ``detector``."""

    addr: str
    detector: Optional[Detector] = None
    init_rows: Optional[bytearray] = field(default_factory=bytearray)
    infection_level: float = 0.0
    peak_level: float = 0.0
    last_seen_us: int = 0
    decisions_count: int = 0
    consecutive_above: int = 0


class DeviceReportRow(NamedTuple):
    addr: str
    infection_level: float
    peak_level: float
    is_compromised: bool
    decisions_count: int
    last_seen_us: int
    evicted: bool = False


class InfectionReport(NamedTuple):
    """Per-device rows (infection level descending) plus a trace-level summary."""

    devices: Tuple[DeviceReportRow, ...]
    packets: int
    compromised: Tuple[str, ...]


class DeviceBank:
    """The set of per-address detectors over one packet stream."""

    def __init__(self, config: Config):
        Detector(DEVICE_DIM, config, mode=Mode.DEVICE)  # first: rejects a config no device takes
        self.config = config
        self._metrics = DirectionalMetrics(config.metrics.N, config.metrics.T_us)
        self._devices: Dict[str, DeviceRecord] = {}
        self._evicted: List[DeviceReportRow] = []
        self._packets = 0
        self._ttl_us = int(round(config.device.ttl_seconds * 1e6))
        self._init_bytes = config.device.init_len * DEVICE_DIM * 8

    def __len__(self) -> int:
        return len(self._devices)

    def device(self, addr: str) -> Optional[DeviceRecord]:
        return self._devices.get(addr)

    def ingest(self, pkt: Packet) -> List[Tuple[str, Decision]]:
        """Feed one ``Packet`` tuple; returns the (address, Decision) pairs it produced.

        The packet's src and dst each get a DeviceRecord on first sight; a
        device only starts producing decisions once its own init completes.
        """
        ts_us, src, dst, size_bytes = pkt
        vectors = self._metrics.update(ts_us, src, dst, size_bytes)
        out: List[Tuple[str, Decision]] = []
        for addr, raw in vectors.items():
            rec = self._devices.get(addr)
            if rec is None:
                rec = self._devices[addr] = DeviceRecord(addr)
            rec.last_seen_us = ts_us
            det = rec.detector
            if det is None:
                rec.init_rows += raw.tobytes()
                if len(rec.init_rows) >= self._init_bytes:
                    det = rec.detector = Detector(DEVICE_DIM, self.config, mode=Mode.DEVICE,
                                                  online=True, noise_salt=salt_for_address(addr))
                    det.initialize(np.frombuffer(rec.init_rows).reshape(-1, DEVICE_DIM))
                    rec.init_rows = None
                continue
            try:
                decision = det.observe(raw, ts_us)
            except (TrainingError, ValueError) as exc:  # hand out what this packet judged
                exc.decisions = out + [(addr, d) for _, d in getattr(exc, "decisions", ())]
                raise
            rec.decisions_count += 1
            rec.infection_level = infection_level(rec.infection_level, decision.value,
                                                  self.config.device.alpha, decision.threshold)
            rec.peak_level = max(rec.peak_level, rec.infection_level)
            above = rec.infection_level > self.config.device.level_threshold
            rec.consecutive_above = rec.consecutive_above + 1 if above else 0
            out.append((addr, decision))
        self._packets += 1
        if self._packets % _EVICTION_CHECK_EVERY == 0:
            self._evict_idle(ts_us)
        return out

    def is_compromised(self, rec: DeviceRecord) -> bool:
        return rec.consecutive_above >= self.config.device.hysteresis_k

    def _evict_idle(self, now_us: int) -> None:
        idle = [addr for addr, rec in self._devices.items()
                if now_us - rec.last_seen_us >= self._ttl_us]
        for addr in idle:
            rec = self._devices.pop(addr)
            self._metrics.drop(addr)
            self._evicted.append(self._row(rec, evicted=True))

    def _row(self, rec: DeviceRecord, evicted: bool = False) -> DeviceReportRow:
        return DeviceReportRow(rec.addr, rec.infection_level, rec.peak_level,
                               self.is_compromised(rec), rec.decisions_count,
                               rec.last_seen_us, evicted)

    def report(self) -> InfectionReport:
        """A snapshot of every device (evicted ones included). Pure: calling
        it twice in a row yields identical reports."""
        rows = [self._row(rec) for rec in self._devices.values()]
        rows.extend(self._evicted)
        rows.sort(key=lambda r: (-r.infection_level, r.addr))
        compromised = tuple(r.addr for r in rows if r.is_compromised)
        return InfectionReport(devices=tuple(rows), packets=self._packets,
                               compromised=compromised)
