"""EXPLAIN: human-readable traces of the optimizer's decisions.

Every cost-based optimizer needs an EXPLAIN path — both for users
("why did my query get this plan?") and for debugging the optimizer
itself.  :func:`explain` re-derives, for a finished
:class:`~repro.core.optimizer.OptimizationResult`:

* the coverage relationships found (the WCG edges),
* every provider considered per window with its per-instance and total
  cost, and which one won,
* the factor windows inserted, with their benefit accounting,
* the final cost arithmetic (matching ``summary()``'s totals).
"""

from __future__ import annotations

from ..windows.coverage import covering_multiplier, strictly_relates
from ..windows.window import VIRTUAL_ROOT, Window
from .cost import CostModel, MinCostWCG
from .optimizer import OptimizationResult
from .wcg import WindowCoverageGraph


def _provider_lines(
    gmin: MinCostWCG,
    graph: WindowCoverageGraph,
    model: CostModel,
    indent: str = "    ",
) -> list[str]:
    lines: list[str] = []
    for window in gmin.graph.nodes:
        if window is VIRTUAL_ROOT:
            continue
        n = model.recurrence_count(window, gmin.period)
        tag = " (factor)" if gmin.graph.is_factor(window) else ""
        lines.append(f"  {window.label}{tag}: n = {n} instances/period")
        options: list[tuple[int, str]] = []
        raw_cost = n * model.raw_instance_cost(window)
        options.append(
            (raw_cost, f"raw events @ η·r = {model.raw_instance_cost(window)}")
        )
        for provider in graph.nodes:
            if provider is window or provider is VIRTUAL_ROOT:
                continue
            if strictly_relates(window, provider, graph.semantics):
                m = covering_multiplier(window, provider)
                options.append((n * m, f"from {provider.label} @ M = {m}"))
        options.sort(key=lambda pair: pair[0])
        chosen = gmin.provider.get(window)
        chosen_label = (
            "raw events" if gmin.reads_raw(window) else f"from {chosen.label}"
        )
        for cost, label in options:
            marker = "->" if label.startswith(chosen_label.split(" @ ")[0]) or (
                label.startswith("raw") and gmin.reads_raw(window)
            ) else "  "
            lines.append(f"{indent}{marker} cost {cost:>8}  {label}")
        lines.append(
            f"{indent}chosen: {chosen_label}"
            f"  (cost {gmin.costs.get(window, 0)})"
        )
    return lines


def _physical_section(result: OptimizationResult, engine: str) -> list[str]:
    """Physical execution paths of the best plan on ``engine``."""
    from ..plans.render import physical_paths
    from .rewrite import rewrite_plan

    best = result.best
    if best is None:
        return [f"physical paths ({engine}): original plan only"]
    plan = rewrite_plan(best, result.aggregate)
    lines = [f"physical paths ({engine}):"]
    for window, path in physical_paths(plan, engine).items():
        lines.append(f"  {window.label}: {path}")
    return lines


def _shard_section(result: OptimizationResult, shards) -> list[str]:
    """Key-shard fan-out of the winning plan (DESIGN.md §7).

    ``shards`` is a fan-out count or a live
    :class:`~repro.runtime.ShardedSession`; a session contributes its
    decayed per-shard load counters (DESIGN.md §12) so the trace shows
    where the stream's weight currently sits.
    """
    from ..plans.render import (
        SHARD_MERGE_DESCRIPTION,
        resolve_shards,
        shard_load_lines,
    )

    shards, loads = resolve_shards(shards)
    lines = [
        f"shard fan-out (x{shards} key-hash shards):",
        "  plan replicated per shard over a disjoint key slice; "
        "workload mutations broadcast at one safe watermark",
        f"  merge ({result.aggregate.name}): {SHARD_MERGE_DESCRIPTION}",
    ]
    if loads is not None:
        lines.append("  load (decayed, per shard):")
        lines.extend(shard_load_lines(loads, indent="    "))
    return lines


def explain(
    result: OptimizationResult,
    engine: "str | None" = None,
    shards: "int | object | None" = None,
) -> str:
    """Render the full optimization trace for ``result``.

    With ``engine`` given, append the physical execution path each
    window of the winning plan takes on that engine (DESIGN.md §5) —
    the logical/physical split makes "what the optimizer chose" and
    "what the engine does" separately inspectable.  With ``shards``
    given — a fan-out count or a live
    :class:`~repro.runtime.ShardedSession` — also append the key-shard
    fan-out the sharded runtime would execute the plan under
    (DESIGN.md §7), including the session's decayed per-shard load
    counters when a session is passed (DESIGN.md §12).
    """
    lines = [
        "EXPLAIN multi-window aggregate optimization",
        f"aggregate : {result.aggregate.name} "
        f"({result.aggregate.taxonomy})",
        f"semantics : {result.semantics or 'none (holistic fallback)'}",
        f"event rate: η = {result.event_rate}",
        f"windows   : "
        + ", ".join(w.label for w in result.windows),
    ]
    if result.semantics is None:
        lines.append(
            "no rewriting: holistic aggregates cannot merge sub-aggregates;"
        )
        lines.append(f"original plan cost = {result.baseline_cost}")
        if engine is not None:
            lines.extend(_physical_section(result, engine))
        if shards is not None:
            lines.extend(_shard_section(result, shards))
        return "\n".join(lines)

    model = CostModel(event_rate=result.event_rate)
    gmin = result.without_factors
    assert gmin is not None
    lines.append(
        f"hyper-period R = {gmin.period}; baseline (independent) cost "
        f"= {result.baseline_cost}"
    )

    graph = WindowCoverageGraph.build(result.windows, result.semantics)
    edges = [
        f"{p.label} -> {c.label}"
        for p, c in graph.edges
        if p is not VIRTUAL_ROOT
    ]
    lines.append("")
    lines.append(f"coverage edges ({len(edges)}): " + (", ".join(edges) or "none"))

    lines.append("")
    lines.append(f"[Algorithm 1] min-cost WCG — total {gmin.total_cost}")
    lines.extend(_provider_lines(gmin, graph, model))

    factored = result.with_factors
    if factored is not None:
        lines.append("")
        lines.append(
            f"[Algorithm 3] with factor windows — total "
            f"{factored.total_cost}"
        )
        lines.append(f"  search: {result.search_stats}")
        if result.inserted_factors:
            for candidate in result.inserted_factors:
                kept = candidate.window in factored.factor_windows
                status = "kept" if kept else "pruned (unused after Alg 1)"
                lines.append(
                    f"  inserted {candidate.window.label} "
                    f"(benefit {candidate.benefit}) — {status}"
                )
            factor_graph = WindowCoverageGraph.build(
                result.windows,
                result.semantics,
                factors=factored.factor_windows,
            )
            lines.extend(_provider_lines(factored, factor_graph, model))
        else:
            lines.append("  no beneficial factor window found")

    lines.append("")
    best = "with factor windows" if result.best is factored else (
        "without factor windows"
    )
    lines.append(
        f"decision: plan {best}; predicted speedup "
        f"{result.predicted_speedup:.2f}x over the original plan"
    )
    if engine is not None:
        lines.append("")
        lines.extend(_physical_section(result, engine))
    if shards is not None:
        lines.append("")
        lines.extend(_shard_section(result, shards))
    return "\n".join(lines)
