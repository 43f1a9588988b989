"""Property tests for DESIGN.md invariant 9.

For randomized register/deregister/rate-shift schedules over a mixed
pool of mergeable (covered-by and partitioned-by) and holistic
aggregates, a live session's emitted result stream must be
bit-identical to a cold batch run of the final workload on the same
events — and the work it does must stay bounded (a plan switch replays
at most the reorder buffer plus one chunk, never history).

Streams carry integer values so every partial merge is exact float64
arithmetic: bit-identity is required, not just closeness.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregates.registry import AVG, MAX, MEDIAN, MIN, SUM
from repro.core.multiquery import Query, optimize_workload
from repro.engine.executor import execute_plan
from repro.engine.outoforder import scramble_batch
from repro.plans.builder import original_plan
from repro.runtime import QuerySession
from repro.windows.window import Window, WindowSet

from session_streams import cold_reference, group_runtimes, integer_stream

POOL = [
    Query("q0", WindowSet([Window(8, 4), Window(16, 8)]), MIN),
    Query("q1", WindowSet([Window(6, 3), Window(8, 4)]), MIN),
    Query("q2", WindowSet([Window(12, 12)]), MAX),
    Query("q3", WindowSet([Window(10, 5)]), SUM),
    Query("q4", WindowSet([Window(20, 10)]), SUM),
    Query("q5", WindowSet([Window(12, 6)]), AVG),
    Query("q6", WindowSet([Window(9, 3)]), MEDIAN),
    Query("q7", WindowSet([Window(12, 4)]), MEDIAN),
]

TICKS = 700

schedule_strategy = st.fixed_dictionaries(
    {
        "picks": st.lists(
            st.integers(0, len(POOL) - 1),
            min_size=1,
            max_size=5,
            unique=True,
        ),
        "register_at": st.lists(
            st.floats(0.0, 0.6), min_size=5, max_size=5
        ),
        "deregister": st.lists(
            st.booleans(), min_size=5, max_size=5
        ),
        "deregister_at": st.lists(
            st.floats(0.65, 0.95), min_size=5, max_size=5
        ),
        "lateness": st.integers(0, 9),
        "scramble_seed": st.integers(0, 100),
        "rates": st.lists(
            st.sampled_from([1, 2, 8, 25]), min_size=2, max_size=3
        ),
        "hysteresis": st.sampled_from([None, 0.4]),
    }
)


@given(schedule=schedule_strategy)
@settings(max_examples=15, deadline=None)
def test_randomized_schedules_are_observationally_invisible(schedule):
    picks = schedule["picks"]
    span = TICKS // len(schedule["rates"])
    segments = tuple((rate, span) for rate in schedule["rates"])
    batch = integer_stream(
        ticks=TICKS,
        num_keys=2,
        seed=schedule["scramble_seed"],
        rate_segments=segments,
    )
    events = scramble_batch(
        batch, schedule["lateness"], seed=schedule["scramble_seed"]
    )
    n = len(events)

    register_at = {}
    deregister_at = {}
    for slot, index in enumerate(picks):
        query = POOL[index]
        register_at.setdefault(
            int(schedule["register_at"][slot] * n), []
        ).append(query)
        if schedule["deregister"][slot] and slot > 0:
            # slot 0 always survives so the final workload is non-empty
            deregister_at.setdefault(
                int(schedule["deregister_at"][slot] * n), []
            ).append(query.name)

    session = QuerySession(
        num_keys=2,
        max_lateness=schedule["lateness"],
        hysteresis=schedule["hysteresis"],
    )
    dropped = set()
    for i, (ts, key, value) in enumerate(events):
        for query in register_at.get(i, ()):
            session.register(query)
        for name in deregister_at.get(i, ()):
            if name in session.queries:
                session.deregister(name)
                dropped.add(name)
        session.push(ts, key, value)
    for queries in register_at.values():
        for query in queries:
            if query.name not in session.queries and query.name not in dropped:
                session.register(query)
    results = session.finish(horizon=batch.horizon)

    final = [POOL[i] for i in picks if POOL[i].name not in dropped]
    cold = cold_reference(final, batch)
    for query in final:
        for window in query.windows:
            emitted = results[query.name][window]
            reference = cold[(query.name, window)]
            assert emitted.frontier == reference.shape[1], (
                query.name,
                window,
            )
            np.testing.assert_array_equal(
                emitted.values,
                reference[:, emitted.start_instance:emitted.frontier],
            )

    # Deregistered queries: what *was* emitted must still match a cold
    # run (window results are plan-independent, invariant 5).
    for name in dropped:
        query = next(q for q in POOL if q.name == name)
        for window in query.windows:
            emitted = results[name][window]
            reference = execute_plan(
                original_plan(WindowSet([window]), query.aggregate),
                batch,
                engine="streaming-chunked",
            ).results[window]
            np.testing.assert_array_equal(
                emitted.values,
                reference[:, emitted.start_instance:emitted.frontier],
            )

    # Every displaced operator drained and retired.
    for runtime in group_runtimes(session):
        assert runtime.draining == []

    # Bounded work: even with every switch in the schedule, total
    # physical touches stay within a small multiple of the full-pool
    # cold run — a history replay per switch would blow through this.
    envelope = 0
    all_picked = [POOL[i] for i in picks]
    workload = optimize_workload(all_picked)
    for group in workload.groups:
        plan = group.plan or original_plan(group.combined, group.aggregate)
        envelope += execute_plan(
            plan, batch, engine="streaming-chunked"
        ).stats.total_physical
    assert session.stats().total_physical <= 2 * envelope + 5000


bounce_windows = st.lists(
    st.builds(
        lambda s, k: Window(k * s, s), st.integers(1, 6), st.integers(1, 4)
    ),
    min_size=1, max_size=3, unique=True,
).map(WindowSet)


@given(
    window_sets=st.lists(bounce_windows, min_size=3, max_size=3),
    aggregate=st.sampled_from([MIN, SUM]),
    bounces=st.lists(
        st.tuples(
            st.integers(20, 250), st.integers(0, 2), st.integers(0, 12)
        ),
        min_size=1, max_size=4,
    ),
    seed=st.integers(0, 100),
)
@settings(max_examples=150, deadline=None)
def test_bounced_queries_are_observationally_invisible(
    window_sets, aggregate, bounces, seed
):
    """Deregister a query and register it again ``gap`` ticks later,
    while its windows' dropped operators may still be draining for the
    other queries' displaced readers (they share one group): every
    emitted segment, archived or live, matches the cold run."""
    queries = [
        Query(name, windows, aggregate)
        for name, windows in zip("abc", window_sets)
    ]
    batch = integer_stream(ticks=300, rate=1, num_keys=2, seed=seed)
    cold = cold_reference(queries, batch)
    session = QuerySession(num_keys=2, hysteresis=None)
    for query in queries:
        session.register(query)
    rows = list(batch.rows())
    pushed = 0
    for at, which, gap in sorted(bounces):
        at = max(at, pushed)
        session.push_many(rows[pushed:at])
        session.deregister(queries[which].name)
        session.push_many(rows[at : at + gap])
        session.register(queries[which])
        pushed = at + gap
    session.push_many(rows[pushed:])
    results = session.finish(horizon=batch.horizon)
    for name, per_window in results.items():
        live = "@g" not in name
        for window, emitted in per_window.items():
            reference = cold[(name.split("@")[0], window)]
            if live:
                assert emitted.frontier == reference.shape[1], (name, window)
            np.testing.assert_array_equal(
                emitted.values,
                reference[:, emitted.start_instance:emitted.frontier],
            )
    for runtime in group_runtimes(session):
        assert runtime.draining == []
