"""The two "an empty buffer adopts what it is handed" rules of the
chunked operators (DESIGN.md §5, "One pane engine"), and the one store
they write into.

Adoption shares one array between a provider's sinks, its result array
and every consumer's buffer, so it is sound only while nobody writes
into a block they were handed.  These tests pin that from both sides:
a live-protocol run that adopts often is bit-identical to a control
that never adopts (and whose raw operator absorbs one event at a time:
exact pane folds make that cut invisible too), every block handed out
is unchanged at the end, and a source scan names the one in-place
write in ``engine/streaming.py`` — the raw operator's scatter into the
pane store it owns.
"""

import ast
import pickle
from pathlib import Path

import numpy as np

import repro.engine.streaming as streaming
from repro.aggregates.registry import AVG
from repro.engine.stats import ExecutionStats
from repro.engine.streaming import (
    _ChunkedRawOperator,
    _ChunkedSubAggOperator,
)
from repro.windows.window import Window

PROVIDER = Window(10, 10)
TUMBLING = Window(20, 20)  # reads exactly two partials: drains to width 0
HOPPING = Window(40, 10)  # keeps three partials between closes

#: Chunk ends.  Multiples of 20 leave the provider's pane buffer and the
#: tumbling consumer's partials at width 0 (the next chunk is adopted);
#: the others leave something behind (the next chunk is merged).
ENDS = (20, 27, 40, 60, 61, 80, 100, 110, 127, 140, 160, 175, 200, 220, 240)
MIGRATE_AT, HANDOFF_AT, PICKLE_AT = 100, 140, 200


class _EventAtATimeRaw(_ChunkedRawOperator):
    """Absorbs every chunk one event at a time."""

    def absorb(self, ts, keys, values):
        for i in range(ts.size):
            super().absorb(ts[i : i + 1], keys[i : i + 1], values[i : i + 1])


class _CopyingSubAgg(_ChunkedSubAggOperator):
    """Never adopts a provider's block: it is handed a private copy."""

    def accept_block(self, p0, p1, components):
        super().accept_block(p0, p1, tuple(np.array(c) for c in components))


class _Tap:
    """Every block any sink was handed, beside a copy made on arrival."""

    def __init__(self):
        self.handed = []

    def sink(self, tag):
        return _TapSink(self, tag)

    def untouched(self):
        for _, _, _, arrays, copies in self.handed:
            for array, copy in zip(arrays, copies):
                np.testing.assert_array_equal(array, copy)

    def stitched(self):
        out = {}
        for tag, window, m0, arrays, _ in self.handed:
            out.setdefault((tag, window), []).append((m0, arrays))
        return out


class _TapSink:
    def __init__(self, tap, tag):
        self.tap, self.tag = tap, tag

    def __call__(self, window, m0, m1, block):
        arrays = block if isinstance(block, tuple) else (block,)
        self.tap.handed.append(
            (self.tag, window, m0, arrays, tuple(a.copy() for a in arrays))
        )


class _TapConsumer:
    """First in its provider's consumer list: records each component
    block the provider hands its consumers, before any of them can
    adopt it."""

    def __init__(self, sink):
        self.sink = sink

    def accept_block(self, m0, m1, components):
        self.sink(PROVIDER, m0, m1, components)


def _core(name, num_keys, tap, raw_cls, sub_cls):
    """A provider with a sink and a component tap feeding two
    consumers."""
    stats = ExecutionStats()
    raw = raw_cls(
        PROVIDER, AVG, num_keys, None, stats, sink=tap.sink(f"{name}.final")
    )
    raw.consumers.append(_TapConsumer(tap.sink(f"{name}.partial")))
    for window in (TUMBLING, HOPPING):
        raw.consumers.append(
            sub_cls(
                PROVIDER, window, AVG, num_keys, None, stats,
                sink=tap.sink(f"{name}.final"),
            )
        )
    return raw


def _operators(raw):
    return [raw, *raw.consumers[1:]]


def _feed(raw, ts, keys, values, start, end):
    lo, hi = np.searchsorted(ts, (start, end))
    raw.absorb(ts[lo:hi], keys[lo:hi], values[lo:hi])
    for op in _operators(raw):
        op.advance(end)


def _run(raw_cls, sub_cls):
    """Two lockstep cores: key 1 migrates a -> b, then every operator
    hands its state to a successor, then the whole graph is pickled."""
    rng = np.random.default_rng(11)
    n = 900
    ts = np.sort(rng.integers(0, ENDS[-1], n))
    owner = {"a": [0, 1, 3], "b": [2, 4]}
    global_keys = rng.integers(0, 5, n)
    values = rng.normal(0, 10, n)
    tap = _Tap()
    cores = {
        name: _core(name, len(keys), tap, raw_cls, sub_cls)
        for name, keys in owner.items()
    }
    widths_at_absorb = set()
    start = 0
    for end in ENDS:
        for name, raw in cores.items():
            mine = np.isin(global_keys, owner[name])
            local = np.searchsorted(owner[name], global_keys[mine])
            widths_at_absorb.update(
                (type(op).__name__, op.retained_state == 0)
                for op in _operators(raw)
            )
            _feed(raw, ts[mine], local, values[mine], start, end)
        start = end
        if end == MIGRATE_AT:
            owner = {"a": [0, 3], "b": [1, 2, 4]}
            for src, dst in zip(*map(_operators, cores.values())):
                bundle = src.extract_keys(np.array([1]))
                dst.absorb_keys(bundle, np.array([0]), 3)
        if end == HANDOFF_AT:
            for name, old in cores.items():
                new = _core(name, old.num_keys, tap, raw_cls, sub_cls)
                for heir, donor in zip(_operators(new), _operators(old)):
                    heir.adopt(donor.handoff())
                cores[name] = new
        if end == PICKLE_AT:
            tap.untouched()
            cores, tap = pickle.loads(pickle.dumps((cores, tap)))
    tap.untouched()
    return tap.stitched(), widths_at_absorb


def test_adopting_run_is_bit_identical_to_the_never_adopting_one():
    got, widths = _run(_ChunkedRawOperator, _ChunkedSubAggOperator)
    want, _ = _run(_EventAtATimeRaw, _CopyingSubAgg)
    # The schedule reaches both states of both adopting operators.
    assert widths >= {
        ("_ChunkedRawOperator", True), ("_ChunkedRawOperator", False),
        ("_ChunkedSubAggOperator", True), ("_ChunkedSubAggOperator", False),
    }
    assert got.keys() == want.keys()
    for stream, blocks in got.items():
        assert [m0 for m0, _ in blocks] == [m0 for m0, _ in want[stream]]
        for (_, arrays), (_, expected) in zip(blocks, want[stream]):
            for array, reference in zip(arrays, expected):
                np.testing.assert_array_equal(array, reference)


def test_a_block_covering_every_instance_becomes_the_result_array():
    ts = np.arange(0, 60, 3)
    keys, values = np.zeros_like(ts), ts.astype(np.float64)

    def bounded():
        op = _ChunkedRawOperator(PROVIDER, AVG, 1, 6, ExecutionStats())
        op.expose_results()
        assert np.isnan(op.results).all() and op.results.shape == (1, 6)
        return op

    whole, pieces = bounded(), bounded()
    _feed(whole, ts, keys, values, 0, 60)
    for start in range(0, 60, 20):
        _feed(pieces, ts, keys, values, start, start + 20)
    np.testing.assert_array_equal(whole.results, pieces.results)
    assert whole.results.flags.writeable and pieces.results.flags.writeable


def _writes_in_place(node):
    """A call that writes into an existing array: ``out=`` or
    ``ufunc.at``."""
    return isinstance(node, ast.Call) and (
        any(kw.arg == "out" for kw in node.keywords)
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "at")
    )


def test_only_the_raw_operators_absorb_writes_in_place():
    """``out=`` and ``ufunc.at`` are how this module writes into an
    existing array; the one site scatters into the pane store its
    operator built itself."""
    tree = ast.parse(Path(streaming.__file__).read_text())
    functions = [(None, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        functions += [
            (cls.name, n) for n in cls.body if isinstance(n, ast.FunctionDef)
        ]
    writers = {
        (owner, fn.name)
        for owner, fn in functions
        if any(_writes_in_place(node) for node in ast.walk(fn))
    }
    assert writers == {("_ChunkedRawOperator", "absorb")}
