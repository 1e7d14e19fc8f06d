"""``Detector.step_rows`` against the per-row oracle (``oracles.PerRowFeed``):
for any config and any split of an input into calls, the same decisions, the
same error and the same state file."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from aadetect.config import config_from_dict
from aadetect.detector import Detector, Mode, save_state
from aadetect.traffic import FeatureTable, Trace
from oracles import PerRowFeed

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

# Timestamps: small steps, gaps past 2**53, and values next to either int64 bound.
timestamp = st.one_of(st.integers(0, 3_000_000), st.integers(2**53, 2**55),
                      st.integers(INT64_MIN, INT64_MIN + 2**20),
                      st.integers(INT64_MAX - 2**20, INT64_MAX),
                      st.integers(INT64_MIN, INT64_MAX))


@st.composite
def packet_inputs(draw):
    n = draw(st.integers(0, 40))
    times = sorted(draw(st.lists(timestamp, min_size=n, max_size=n)))
    if times and draw(st.booleans()):  # an API trace may go back in time; a parsed one never does
        k = draw(st.integers(0, len(times) - 1))
        times[k] = draw(st.integers(INT64_MIN, times[k]))
    sizes = draw(st.lists(st.integers(0, 1500), min_size=len(times), max_size=len(times)))
    hosts = ["10.0.0.1", "10.0.0.2"]
    return trace([(t, hosts[i % 2], hosts[1 - i % 2], s)
                  for i, (t, s) in enumerate(zip(times, sizes))])


def trace(packets):
    """Packet tuples as a ``Trace``, the one packet input of ``step_rows``."""
    return Trace(*zip(*packets)) if packets else Trace()


@st.composite
def feature_inputs(draw):
    n = draw(st.integers(4, 48))
    width = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).uniform(0.0, 2.0, size=(n, width))
    rows[n // 2:, 0] *= draw(st.sampled_from([1.0, 50.0]))  # a shift, judged an attack
    return FeatureTable(rows)


@st.composite
def configs(draw, mode):
    # Feature row i is timed i microseconds.
    tiny, spans = (1e-6, [4.5e-6, 1e-5, 2.5e-5]) if mode == Mode.FEATURES else (0.25, [0.5, 2.0])
    train = {
        "init_len": draw(st.integers(4, 12)),
        "init_seconds": draw(st.sampled_from(
            [None, 0.0, 1e-6, *spans, 9.3e12, 1e300, 1e303])),
        "window_len": draw(st.sampled_from([None, 3, 5])),
        "window_seconds": draw(st.sampled_from([None, tiny, 4 * tiny])),
        "seed": draw(st.integers(0, 3)),
    }
    return config_from_dict({"train": train, "metrics": {"N": 5, "T_seconds": 1.0}})


def split(items, cuts):
    """``items`` in pieces at the sorted ``cuts``: ``Trace`` or matrix slices."""
    edges = [0, *sorted(min(c, len(items)) for c in cuts), len(items)]
    if isinstance(items, FeatureTable):
        items = items.features
    return [items[a:b] for a, b in zip(edges, edges[1:])]


def outcome(det, run):
    """The decisions ``run`` yields, the error that stops it (type and
    message) and the state file, or the error that ``save_state`` raises."""
    decisions, error = [], None
    try:
        for decision in run():
            decisions.append(decision)
    except Exception as exc:  # the error is part of the outcome
        error = (type(exc), str(exc))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            save_state(det, Path(tmp) / "state.json")
            state = (Path(tmp) / "state.json").read_bytes()
        except Exception as exc:  # a detector still in init cannot be saved
            state = (type(exc), str(exc))
    return decisions, error, state


def check_partition(mode, items, config, online, cuts):
    dim = 3 if mode == Mode.BOTNET else items.features.shape[1]
    reference = Detector(dim, config, mode, online=online)
    feed = PerRowFeed(reference)
    per_row = items.features if isinstance(items, FeatureTable) else items

    def stepped():
        for item in per_row:
            decision = feed.step(item)
            if decision is not None:
                yield decision

    fed = Detector(dim, config, mode, online=online)

    def in_pieces():
        for piece in split(items, cuts) if cuts else [items]:
            yield from fed.step_rows(piece)

    assert outcome(fed, in_pieces) == outcome(reference, stepped)


# 9.3e12 s is 9.3e18 us: the window closes 9.3e18 us after the first packet.
# A float difference rounds a gap one short of that up to it; an int64 one
# overflows on the gap from INT64_MIN to INT64_MAX.
SHORT_BY_ONE = [INT64_MIN + k for k in (0, 1, 2, 3, 9_300_000_000_000_000_000 - 1,
                                        9_300_000_000_000_000_000)]
WIDEST = [INT64_MIN, INT64_MIN, -1, 0, INT64_MAX, INT64_MAX]


def plain(**train):
    return config_from_dict({"train": train, "metrics": {"N": 5, "T_seconds": 1.0}})


@given(items=packet_inputs(), config=configs(Mode.BOTNET), online=st.booleans(),
       cuts=st.lists(st.integers(0, 40), max_size=6))
@example(items=trace([(t, "a", "b", 100) for t in SHORT_BY_ONE]),
         config=plain(init_seconds=9.3e12), online=True, cuts=[4])
@example(items=trace([(t, "a", "b", 100) for t in WIDEST]), config=plain(init_seconds=9.3e12),
         online=False, cuts=[1, 2, 3])
def test_packets_in_any_split_decide_as_the_per_row_oracle(items, config, online, cuts):
    check_partition(Mode.BOTNET, items, config, online, cuts)


@given(items=feature_inputs(), config=configs(Mode.FEATURES), online=st.booleans(),
       cuts=st.lists(st.integers(0, 48), max_size=6))
@example(items=FeatureTable(np.zeros((0, 2))), config=plain(), online=False, cuts=[])
@example(items=FeatureTable(np.linspace(0.0, 1.0, 40).reshape(20, 2)),
         config=plain(init_seconds=0.0, window_len=3), online=True, cuts=[2, 5, 5, 9])
def test_feature_rows_in_any_split_decide_as_the_per_row_oracle(items, config, online, cuts):
    check_partition(Mode.FEATURES, items, config, online, cuts)
