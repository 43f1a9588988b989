"""Round-trip property tests for key partitioning (DESIGN.md §7).

``partition_batch`` must preserve every :class:`EventBatch` invariant
per shard (sorted timestamps, inherited horizon, dense local key ids)
and lose nothing: ``merge_batch_shards`` reassembles the original
batch bit-for-bit, including arrival order among equal timestamps.
Composed with ``encode_keys`` this is the full outer→inner id pipeline
of the sharded runtime.

Randomized cases are seeded from ``REPRO_TEST_SEED`` (see
tests/conftest.py) so any counterexample reproduces exactly.
"""

import numpy as np
import pytest

from repro.engine.events import (
    EventBatch,
    KeyPartitioner,
    encode_keys,
    make_batch,
    merge_batch_shards,
    partition_batch,
    shard_assignment,
)
from repro.errors import ExecutionError


def random_batch(rng, num_events, num_keys, tick_span=200):
    """A sorted batch with duplicate timestamps and arbitrary keys."""
    ts = np.sort(rng.integers(0, tick_span, num_events)).astype(np.int64)
    return EventBatch(
        timestamps=ts,
        keys=rng.integers(0, num_keys, num_events).astype(np.int64),
        values=rng.normal(0.0, 10.0, num_events),
        horizon=tick_span,
        num_keys=num_keys,
    )


def assert_batches_equal(left: EventBatch, right: EventBatch, msg=""):
    np.testing.assert_array_equal(left.timestamps, right.timestamps, msg)
    np.testing.assert_array_equal(left.keys, right.keys, msg)
    np.testing.assert_array_equal(left.values, right.values, msg)
    assert left.horizon == right.horizon, msg
    assert left.num_keys == right.num_keys, msg


class TestShardAssignment:
    def test_deterministic_and_in_range(self):
        a = shard_assignment(257, 5)
        b = shard_assignment(257, 5)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (257,)
        assert a.min() >= 0 and a.max() < 5

    @pytest.mark.parametrize("num_shards", [2, 3, 4, 7, 8])
    def test_balanced_for_dense_key_spaces(self, num_shards):
        """Fibonacci hashing keeps consecutive dense ids balanced:
        no shard holds more than twice its fair share."""
        assignment = shard_assignment(256, num_shards)
        counts = np.bincount(assignment, minlength=num_shards)
        fair = 256 / num_shards
        assert counts.max() <= 2 * fair
        assert counts.min() >= 1

    def test_invalid_arguments(self):
        with pytest.raises(ExecutionError):
            shard_assignment(0, 2)
        with pytest.raises(ExecutionError):
            shard_assignment(4, 0)


class TestPartitionRoundTrip:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("num_keys", [1, 2, 7, 32])
    def test_reassembly_equals_original(
        self, repro_rng, repro_seed, num_shards, num_keys
    ):
        batch = random_batch(repro_rng, 500, num_keys)
        shards = partition_batch(batch, num_shards)
        rebuilt = merge_batch_shards(
            shards, num_keys=num_keys, horizon=batch.horizon
        )
        assert_batches_equal(
            batch, rebuilt, f"seed={repro_seed} shards={num_shards}"
        )

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 6])
    def test_dense_id_invariants(self, repro_rng, repro_seed, num_shards):
        num_keys = 19
        batch = random_batch(repro_rng, 400, num_keys)
        shards = partition_batch(batch, num_shards)
        seen_keys = []
        total_events = 0
        for shard in shards:
            owned = shard.global_keys
            # Global keys strictly increasing → local ids are a dense,
            # order-preserving re-encoding.
            assert np.all(np.diff(owned) > 0), f"seed={repro_seed}"
            if shard.batch.num_events:
                assert shard.batch.keys.min() >= 0
                assert shard.batch.keys.max() < max(1, owned.size)
                # Decoding local ids lands on owned global keys only.
                decoded = owned[shard.batch.keys]
                assert np.all(
                    np.isin(decoded, owned)
                ), f"seed={repro_seed}"
            # Shard batches keep the parent's invariants.
            assert np.all(np.diff(shard.batch.timestamps) >= 0)
            assert shard.batch.horizon == batch.horizon
            seen_keys.extend(owned.tolist())
            total_events += shard.batch.num_events
        # Disjoint union of owned keys = the full dense space.
        assert sorted(seen_keys) == list(range(num_keys))
        assert total_events == batch.num_events

    def test_empty_shards(self, repro_rng):
        """More shards than keys: surplus shards carry valid empty
        batches (one dummy local key) and round-trip cleanly."""
        batch = random_batch(repro_rng, 100, 2)
        shards = partition_batch(batch, 6)
        empty = [s for s in shards if s.global_keys.size == 0]
        assert empty, "expected at least one key-less shard"
        for shard in empty:
            assert shard.batch.num_events == 0
            assert shard.batch.num_keys == 1  # dummy dense id space
        rebuilt = merge_batch_shards(shards, num_keys=2, horizon=batch.horizon)
        assert_batches_equal(batch, rebuilt)

    def test_single_key_stream(self, repro_rng):
        """All events land on one shard; the rest are empty."""
        batch = random_batch(repro_rng, 200, 1)
        shards = partition_batch(batch, 4)
        non_empty = [s for s in shards if s.batch.num_events]
        assert len(non_empty) == 1
        assert non_empty[0].batch.num_events == 200
        assert np.all(non_empty[0].batch.keys == 0)
        rebuilt = merge_batch_shards(shards, num_keys=1, horizon=batch.horizon)
        assert_batches_equal(batch, rebuilt)

    def test_equal_timestamp_order_preserved(self):
        """Stable partitioning: same-timestamp events return to their
        exact source positions (a plain stable sort could not)."""
        batch = make_batch(
            timestamps=[5, 5, 5, 5],
            keys=[3, 1, 2, 0],
            values=[1.0, 2.0, 3.0, 4.0],
            num_keys=4,
        )
        shards = partition_batch(batch, 3)
        rebuilt = merge_batch_shards(shards, num_keys=4, horizon=batch.horizon)
        assert_batches_equal(batch, rebuilt)

    def test_encode_keys_composes_with_partition(self, repro_rng):
        """Outer→inner pipeline: arbitrary key values encode to dense
        ids, partition, and decode back to the original values."""
        raw = [f"device-{int(i)}" for i in repro_rng.integers(0, 9, 300)]
        ids, mapping = encode_keys(raw)
        # encode_keys round trip on its own.
        inverse = {v: k for k, v in mapping.items()}
        assert [inverse[int(i)] for i in ids] == raw
        ts = np.sort(repro_rng.integers(0, 100, 300)).astype(np.int64)
        batch = EventBatch(
            timestamps=ts,
            keys=ids,
            values=repro_rng.normal(size=300),
            horizon=100,
            num_keys=len(mapping),
        )
        shards = partition_batch(batch, 4)
        rebuilt = merge_batch_shards(
            shards, num_keys=len(mapping), horizon=100
        )
        assert_batches_equal(batch, rebuilt)
        assert [inverse[int(i)] for i in rebuilt.keys] == raw


class TestPartitionErrors:
    def test_num_keys_mismatch(self, repro_rng):
        batch = random_batch(repro_rng, 50, 4)
        with pytest.raises(ExecutionError):
            KeyPartitioner(8, 2).partition(batch)

    def test_bad_slot_map(self):
        with pytest.raises(ExecutionError, match="lie in"):
            KeyPartitioner(4, 2, slot_map=np.array([0, 1, 2, 0]))
        with pytest.raises(ExecutionError, match="1-d"):
            KeyPartitioner(4, 2, slot_map=np.zeros((2, 2), dtype=np.int64))

    def test_merge_zero_shards(self):
        with pytest.raises(ExecutionError):
            merge_batch_shards([])
