"""Closed-form window coverage and partitioning tests.

Implements the paper's Theorems 1, 3 and 4 (Section II-B):

* ``covered_by(W1, W2)`` — constant-time test of ``W1 <= W2``
  ("W1 is covered by W2"): every interval of ``W1`` is a union of
  intervals of ``W2``.
* ``partitioned_by(W1, W2)`` — the special case where the covering
  intervals are disjoint; requires ``W2`` to be tumbling.
* ``covering_multiplier(W1, W2)`` — ``M(W1, W2) = 1 + (r1 - r2)/s2``,
  the number of provider instances each consumer instance reads.

Terminology used throughout the library: in ``W1 <= W2`` we call ``W1``
the *consumer* (the larger window, which reads sub-aggregates) and
``W2`` the *provider* (the smaller window, which produces them).
"""

from __future__ import annotations

from enum import Enum

from ..errors import InvalidWindowError
from .window import Window


class CoverageSemantics(str, Enum):
    """Which coverage relation an aggregate function may exploit.

    * ``COVERED_BY`` — the general relation (Definition 1).  Usable only
      by aggregates that stay distributive over *overlapping* partitions
      (MIN, MAX — Theorem 6).
    * ``PARTITIONED_BY`` — the disjoint special case (Definition 5).
      Usable by any distributive or algebraic aggregate (Theorem 5).
    """

    COVERED_BY = "covered_by"
    PARTITIONED_BY = "partitioned_by"

    def relation(self):
        """The pairwise predicate implementing this semantics."""
        if self is CoverageSemantics.COVERED_BY:
            return covered_by
        return partitioned_by

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def covered_by(consumer: Window, provider: Window) -> bool:
    """Theorem 1: ``consumer <= provider`` iff

    1. ``s_consumer`` is a multiple of ``s_provider``, and
    2. ``r_consumer - r_provider`` is a (positive) multiple of
       ``s_provider``.

    Definition 1 additionally requires ``r_consumer > r_provider``;
    identical windows are covered by convention (reflexivity).
    """
    if consumer == provider:
        return True
    if consumer.range <= provider.range:
        return False
    if consumer.slide % provider.slide != 0:
        return False
    return (consumer.range - provider.range) % provider.slide == 0


def partitioned_by(consumer: Window, provider: Window) -> bool:
    """Theorem 4: ``consumer`` is partitioned by ``provider`` iff

    1. ``s_consumer`` is a multiple of ``s_provider``,
    2. ``r_consumer`` is a multiple of ``s_provider``, and
    3. ``provider`` is tumbling (``r_provider == s_provider``).
    """
    if consumer == provider:
        return True
    if consumer.range <= provider.range:
        return False
    if not provider.is_tumbling:
        return False
    if consumer.slide % provider.slide != 0:
        return False
    return consumer.range % provider.slide == 0


def covering_multiplier(consumer: Window, provider: Window) -> int:
    """Theorem 3: ``M(W1, W2) = 1 + (r1 - r2) / s2``.

    Only defined when ``consumer <= provider``; raises otherwise.
    ``M(W, W) == 1`` by reflexivity.
    """
    if not covered_by(consumer, provider):
        raise InvalidWindowError(
            f"covering multiplier undefined: {consumer} is not covered by "
            f"{provider}"
        )
    return 1 + (consumer.range - provider.range) // provider.slide


def relates(
    consumer: Window, provider: Window, semantics: CoverageSemantics
) -> bool:
    """``consumer`` can read sub-aggregates of ``provider`` under
    ``semantics``."""
    return semantics.relation()(consumer, provider)


def strictly_relates(
    consumer: Window, provider: Window, semantics: CoverageSemantics
) -> bool:
    """Like :func:`relates` but excluding the reflexive case."""
    return consumer != provider and relates(consumer, provider, semantics)
