"""Span tracing for the traced run, installed from the benchmark's own files.

Each wrap point names the attribute the package actually calls. Functions
imported with ``from .x import f`` are bound in the importing module, so
``aadetect.detector.update_incremental`` (not ``aadetect.training``) is what
a detector refit goes through, and ``aadetect.cli.load_trace`` is what the
CLI parses with. A wrap point whose target no longer exists is reported as
missing and its metrics read 0; the run carries on.

Spans are kept in memory as they close: each records its name, start, end
and the span that caused it (the innermost open span), and is folded at once
into per-name totals (calls, total time, self time = duration minus time
covered by child spans). Only refit durations are kept one by one, for their
percentiles. ``Tracer.summary`` is written out when the child exits.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional

import numpy as np

# (target, span name). The target is "module:attr[.attr]"; the span name's
# prefix is the layer.
WRAP_POINTS = (
    ("aadetect.cli:load_trace", "traffic.parse"),
    ("aadetect.cli:load_feature_dataset", "traffic.parse"),
    ("aadetect.metrics:StreamMetrics.update", "metrics.stream_update"),
    ("aadetect.metrics:DirectionalMetrics.update", "metrics.directional_update"),
    ("aadetect.metrics:ScalingFactors.apply", "metrics.scale_apply"),
    ("aadetect.metrics:MinMaxScaler.apply", "metrics.scale_apply"),
    ("aadetect.aadrnn:AadrnnModel.hidden", "aadrnn.hidden"),
    ("aadetect.detector:fit_batch_with_stats", "training.refit"),
    ("aadetect.detector:update_incremental", "training.refit"),
    ("aadetect.training:noise_rng", "training.noise"),
    ("aadetect.training:corrupt", "training.noise"),
    ("aadetect.training:solve_readout", "training.solve"),
    ("aadetect.detector:Detector.observe", "detector.observe"),
    ("aadetect.detector:whisker_threshold", "detector.whisker"),
    ("aadetect.devices:DeviceBank.ingest", "devices.ingest"),
    ("aadetect.devices:Detector", "devices.new_device"),
    ("aadetect.devices:DeviceBank.report", "devices.report"),
    ("aadetect.cli:score", "evaluation.score"),
    ("aadetect.cli:_DecisionLogWriter.write", "cli.log_write"),
    ("aadetect.cli:write_decision_log", "cli.log_write"),
    ("aadetect.cli:_emit_alert", "cli.alert"),
)
LAYERS = ("traffic", "metrics", "aadrnn", "training", "detector", "devices",
          "evaluation", "cli")


class _Agg:
    __slots__ = ("calls", "total_ns", "self_ns", "items")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.items = 0

    def to_json(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns, "self_ns": self.self_ns,
                "items": self.items}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape is not None and len(shape) == 2 else 1


class Tracer:
    """Stack of open spans plus per-name aggregates and a few counters."""

    def __init__(self, flooder: Optional[str] = None, onset_us: Optional[int] = None):
        self.stack: List[list] = []  # [name, child_ns] per open span
        self.aggs: Dict[str, _Agg] = {}
        self.refit_ns: List[int] = []
        self.training_depth = 0
        self.missing: List[str] = []
        self.counts = {"decisions": 0, "accepted_rows": 0, "threshold_updates": 0,
                       "evicted": 0, "false_flags": 0, "live_end": 0}
        self.flooder = flooder
        self.onset_us = onset_us
        self.flooder_decisions = 0
        self.flag_delay: Optional[int] = None

    # -- recording ------------------------------------------------------------

    def _close(self, name: str, frame: list, start_ns: int, items: int) -> int:
        dur = perf_counter_ns() - start_ns
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dur  # the parent: the span that caused this one
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        agg.calls += 1
        agg.total_ns += dur
        agg.self_ns += dur - frame[1]
        agg.items += items
        return dur

    def _plain(self, name: str, fn: Callable, items_of=None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [name, 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                items = items_of(args, result) if items_of is not None else 1
                tracer._close(name, frame, start, items)
        return wrapper

    def _hidden(self, fn: Callable) -> Callable:
        tracer = self

        def hidden(model, x):
            name = "aadrnn.hidden_train" if tracer.training_depth else "aadrnn.hidden_score"
            frame = [name, 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(model, x)
            finally:
                tracer._close(name, frame, start, _rows(x))
        return hidden

    def _refit(self, fn: Callable) -> Callable:
        tracer = self

        def refit(*args, **kwargs):
            rows = _rows(np.asarray(args[1]))  # the batch X or the window
            frame = ["training.refit", 0]
            tracer.stack.append(frame)
            tracer.training_depth += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.training_depth -= 1
                tracer.refit_ns.append(tracer._close("training.refit", frame, start, rows))
        return refit

    def _observe(self, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts

        def observe(det, raw, at_us):
            was_init = det.phase.value == "init"
            rows_before = det.accepted_rows + det.pending_rows
            threshold_before = det.threshold
            frame = ["detector.observe", 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            try:
                decision = fn(det, raw, at_us)
            finally:
                tracer._close("detector.observe", frame, start, 1)
            if decision is not None:
                counts["decisions"] += 1
            if not was_init:
                counts["accepted_rows"] += det.accepted_rows + det.pending_rows - rows_before
                if det.threshold != threshold_before:
                    counts["threshold_updates"] += 1
            return decision
        return observe

    def _ingest(self, fn: Callable) -> Callable:
        tracer = self

        def ingest(bank, pkt):
            frame = ["devices.ingest", 0]
            tracer.stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(bank, pkt)
            finally:
                tracer._close("devices.ingest", frame, start, 1)
            if tracer.flag_delay is None and tracer.flooder is not None:
                for addr, decision in out:
                    if addr == tracer.flooder and decision.at_us >= tracer.onset_us:
                        tracer.flooder_decisions += 1
                        rec = bank.device(addr)
                        if bank.is_compromised(rec):
                            tracer.flag_delay = tracer.flooder_decisions
                            break
            return out
        return ingest

    def _report(self, fn: Callable) -> Callable:
        tracer = self

        def report(bank):
            out = fn(bank)
            tracer.counts["evicted"] = sum(1 for row in out.devices if row.evicted)
            tracer.counts["false_flags"] = sum(1 for a in out.compromised if a != tracer.flooder)
            tracer.counts["live_end"] = len(bank)
            return out
        return report

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        builders = {
            "aadrnn.hidden": self._hidden,
            "training.refit": self._refit,
            "detector.observe": self._observe,
            "devices.ingest": self._ingest,
            "devices.report": self._report,
            "traffic.parse": lambda fn: self._plain("traffic.parse", fn,
                                                    lambda a, r: len(r) if r is not None else 0),
            "cli.log_write": lambda fn: self._plain(
                "cli.log_write", fn,
                (lambda a, r: len(a[0])) if fn.__name__ == "write_decision_log" else None),
        }
        for target, name in WRAP_POINTS:
            module_name, _, attr_path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            build = builders.get(name, lambda fn, name=name: self._plain(name, fn))
            setattr(owner, attr, build(fn))

    # -- results ----------------------------------------------------------------

    def summary(self) -> dict:
        return {"aggs": {k: v.to_json() for k, v in self.aggs.items()},
                "refit_ns": self.refit_ns, "counts": dict(self.counts),
                "flag_delay": self.flag_delay, "missing": self.missing}


def merge(summaries) -> dict:
    """Fold the summaries of several traced processes into one."""
    aggs: Dict[str, dict] = {}
    counts: Dict[str, int] = {}
    refit_ns: List[int] = []
    missing, flag_delay = set(), None
    for s in summaries:
        for name, a in s["aggs"].items():
            dst = aggs.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0, "items": 0})
            for k in dst:
                dst[k] += a[k]
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        refit_ns += s["refit_ns"]
        missing.update(s["missing"])
        if s["flag_delay"] is not None:
            flag_delay = s["flag_delay"]
    return {"aggs": aggs, "counts": counts, "refit_ns": refit_ns,
            "missing": sorted(missing), "flag_delay": flag_delay}


def layer_metrics(merged: dict) -> Dict[str, float]:
    """Per-layer metric values from merged span aggregates (0 when a layer did
    no work on this workload or its wrap point is missing)."""
    aggs, counts = merged["aggs"], merged["counts"]
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "items": 0}
    get = lambda name: aggs.get(name, empty)

    def per(num_ns: float, den: float) -> float:  # microseconds per unit
        return num_ns / 1e3 / den if den else 0.0

    parse, stream = get("traffic.parse"), get("metrics.stream_update")
    direct, scale = get("metrics.directional_update"), get("metrics.scale_apply")
    h_score, h_train = get("aadrnn.hidden_score"), get("aadrnn.hidden_train")
    refit, noise, solve = get("training.refit"), get("training.noise"), get("training.solve")
    observe, whisker = get("detector.observe"), get("detector.whisker")
    ingest, new_dev = get("devices.ingest"), get("devices.new_device")
    score, log, alert = get("evaluation.score"), get("cli.log_write"), get("cli.alert")
    refits_ms = np.asarray(merged["refit_ns"], dtype=float) / 1e6
    decisions = counts.get("decisions", 0)
    return {
        "traffic.parse_us_per_item": per(parse["total_ns"], parse["items"]),
        "metrics.stream_update_us": per(stream["total_ns"], stream["calls"]),
        "metrics.stream_update_calls": float(stream["calls"]),
        "metrics.directional_update_us": per(direct["self_ns"], direct["calls"]),
        "metrics.scale_apply_us": per(scale["total_ns"], scale["calls"]),
        "aadrnn.score_us_per_row": per(h_score["total_ns"], h_score["items"]),
        "aadrnn.train_us_per_row": per(h_train["total_ns"], h_train["items"]),
        "aadrnn.rows_per_hidden_call": (h_score["items"] / h_score["calls"]
                                        if h_score["calls"] else 0.0),
        "training.refits": float(refit["calls"]),
        "training.rows": float(refit["items"]),
        "training.us_per_row": per(refit["total_ns"], refit["items"]),
        "training.refit_ms_p50": float(np.median(refits_ms)) if refits_ms.size else 0.0,
        "training.refit_ms_max": float(refits_ms.max()) if refits_ms.size else 0.0,
        "training.noise_us_per_row": per(noise["total_ns"], refit["items"]),
        "training.solve_us": per(solve["total_ns"], solve["calls"]),
        "detector.observe_self_us": per(observe["self_ns"], observe["calls"]),
        "detector.decisions": float(decisions),
        "detector.accepted_rows": float(counts.get("accepted_rows", 0)),
        "detector.accept_ratio": counts.get("accepted_rows", 0) / decisions if decisions else 0.0,
        "detector.threshold_updates": float(counts.get("threshold_updates", 0)),
        "detector.whisker_us": per(whisker["total_ns"], whisker["calls"]),
        "devices.ingest_self_us": per(ingest["self_ns"], ingest["calls"]),
        "devices.created": float(new_dev["calls"]),
        "devices.new_device_us": per(new_dev["total_ns"], new_dev["calls"]),
        "devices.live_end": float(counts.get("live_end", 0)),
        "devices.evicted": float(counts.get("evicted", 0)),
        "devices.flag_delay_decisions": float(merged["flag_delay"] or 0),
        "devices.false_flags": float(counts.get("false_flags", 0)),
        "evaluation.score_ms": score["total_ns"] / 1e6,
        "cli.log_write_us": per(log["total_ns"], log["items"]),
        "cli.alert_us": per(alert["total_ns"], alert["calls"]),
        "cli.alerts": float(alert["calls"]),
    }
