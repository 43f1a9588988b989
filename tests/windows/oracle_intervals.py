"""Interval-level views of windows and brute-force coverage oracles.

Section II of the paper defines window coverage/partitioning in terms of
the *interval representation* ``W = {[m*s, m*s + r)}``.  The closed-form
tests (Theorems 1 and 4) live in :mod:`repro.windows.coverage`; this
test oracle provides the direct, definition-level machinery:

* enumerating intervals,
* computing the covering set of an interval (Definition 2),
* brute-force checks of coverage/partitioning straight from
  Definitions 1, 4 and 5.

The brute-force checks are deliberately simple and slow.  They exist so
property-based tests (invariant 1, ``test_coverage_properties.py``) can
confirm the closed-form theorems against the definitions on thousands
of random window pairs; tests only.
"""

from __future__ import annotations

from typing import Iterator

from repro.windows.window import Window

Interval = tuple[int, int]


def intervals(window: Window, count: int) -> list[Interval]:
    """The first ``count`` intervals of ``window``'s lifetime."""
    return [window.interval(m) for m in range(count)]


def iter_intervals(window: Window) -> Iterator[Interval]:
    """Infinite iterator over the interval representation of ``window``."""
    m = 0
    while True:
        yield window.interval(m)
        m += 1


def covering_set(interval: Interval, provider: Window) -> "list[Interval] | None":
    """Covering set of ``interval`` in ``provider`` (Definition 2), if any.

    Returns the intervals ``[u, v)`` of ``provider`` with
    ``a <= u`` and ``v <= b`` for ``interval = [a, b)`` — but only when
    they actually satisfy Definition 1: some interval starts exactly at
    ``a``, some ends exactly at ``b``, and their union is ``[a, b)``.
    Returns ``None`` when ``interval`` is not covered by ``provider``.
    """
    a, b = interval
    if b <= a:
        return None
    result: list[Interval] = []
    # Candidate provider instances [u, v) with u >= a and v <= b.
    # First start >= a is m_lo = ceil(a / s); last with end <= b needs
    # m*s + r <= b, i.e. m <= (b - r) / s.
    s, r = provider.slide, provider.range
    if b - a < r:
        return None
    m_lo = -(-a // s)
    m_hi = (b - r) // s
    if m_hi < m_lo or m_lo < 0:
        return None
    for m in range(m_lo, m_hi + 1):
        result.append(provider.interval(m))
    if not result:
        return None
    if result[0][0] != a or result[-1][1] != b:
        return None
    # Union must be the full interval with no gap: since intervals are
    # sorted by start, a gap exists iff some start exceeds the running
    # max end.
    reach = result[0][1]
    for u, v in result[1:]:
        if u > reach:
            return None
        reach = max(reach, v)
    if reach != b:
        return None
    return result


def brute_force_covered_by(
    consumer: Window, provider: Window, instances: int = 8
) -> bool:
    """Definition-1 check of ``consumer <= provider`` on the first
    ``instances`` intervals of ``consumer``.

    Coverage requires ``r_consumer > r_provider`` (or window identity).
    Because both windows are periodic, checking a handful of leading
    intervals is sufficient in practice; the property tests compare this
    against Theorem 1 for confidence.
    """
    if consumer == provider:
        return True
    if consumer.range <= provider.range:
        return False
    for m in range(instances):
        if covering_set(consumer.interval(m), provider) is None:
            return False
    return True


def brute_force_partitioned_by(
    consumer: Window, provider: Window, instances: int = 8
) -> bool:
    """Definition-5 check: coverage where every covering set is disjoint."""
    if consumer == provider:
        # A window trivially covers itself, but the covering set is the
        # single identical interval, which is vacuously disjoint.
        return True
    if consumer.range <= provider.range:
        return False
    for m in range(instances):
        cover = covering_set(consumer.interval(m), provider)
        if cover is None:
            return False
        for (u1, v1), (u2, v2) in zip(cover, cover[1:]):
            if u2 < v1:  # consecutive intervals overlap
                return False
    return True


def brute_force_multiplier(
    consumer: Window, provider: Window
) -> "int | None":
    """``|I_{a,b}|`` — the covering multiplier — computed by enumeration.

    Returns ``None`` when ``consumer`` is not covered by ``provider``.
    Matches Theorem 3 (``M = 1 + (r1 - r2)/s2``) whenever coverage holds.
    """
    if consumer == provider:
        return 1
    cover = covering_set(consumer.interval(1), provider)
    if cover is None or not brute_force_covered_by(consumer, provider):
        return None
    return len(cover)
