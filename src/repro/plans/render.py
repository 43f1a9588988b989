"""Plan renderers: Trill-style expressions, Flink DataStream-style
expressions, and an ASCII tree.

These reproduce the translations shown in Figure 2(b)/(c) of the paper
and described for Flink in Section V-F.  They are purely cosmetic —
useful for examples, docs, and eyeballing rewrites — and therefore
favour readability over exact C#/Java syntax.
"""

from __future__ import annotations

import math

from ..windows.coverage import covering_multiplier
from ..windows.units import format_duration
from ..windows.window import Window
from .nodes import (
    LogicalPlan,
    MulticastNode,
    PlanNode,
    SourceNode,
    UnionNode,
    WindowAggregateNode,
)


def physical_path(node: WindowAggregateNode, engine: str) -> str:
    """Describe the physical operator ``engine`` uses for ``node``
    (DESIGN.md §5 documents the path taxonomy)."""
    window = node.window
    if node.provider is not None:
        multiplier = covering_multiplier(window, node.provider)
        return f"subagg-fold[M={multiplier}]"
    if not node.aggregate.mergeable:
        return "raw-segmented-scan[holistic]"
    if engine == "columnar":
        return f"raw-materialize[k={window.range // window.slide}]"
    pane = math.gcd(window.range, window.slide)
    return f"panes[p={pane}, r/p={window.range // pane}]"


def physical_paths(
    plan: LogicalPlan, engine: str
) -> "dict[Window, str]":
    """window → physical-path description for every aggregate node."""
    return {
        node.window: physical_path(node, engine)
        for node in plan.window_nodes()
    }


#: The coordinator's merge step, the same for every aggregate
#: (DESIGN.md §7): the plan tree header and ``core.explain`` both
#: render it.
SHARD_MERGE_DESCRIPTION = (
    "per-key rows concatenate; global reads raw-forward to the "
    "coordinator's one-key core"
)


def resolve_shards(shards):
    """Normalize a ``shards=`` annotation argument.

    Accepts the historical plain fan-out count, or a live
    :class:`~repro.runtime.ShardedSession` (anything exposing
    ``num_shards`` and ``shard_loads()``), in which case the session's
    decayed per-shard load counters ride along for rendering.
    Returns ``(count, loads_or_None)``.
    """
    if shards is None or isinstance(shards, int):
        return shards, None
    return shards.num_shards, shards.shard_loads()


def shard_load_lines(loads: dict, indent: str = "  ") -> list[str]:
    """Render decayed per-shard load counters (DESIGN.md §12).

    One line per shard: decayed event/byte load, the slot count it
    owns, and its key count — the same numbers ``rebalance()`` greedily
    balances, so a skewed table here is the signal to migrate.
    """
    total = sum(entry["events"] for entry in loads.values())
    lines = []
    for shard in sorted(loads):
        entry = loads[shard]
        share = entry["events"] / total if total else 0.0
        lines.append(
            f"{indent}shard {shard}: load {entry['events']:.1f} ev"
            f" ({share:.0%}), {entry['bytes']:.0f} B, "
            f"{int(entry['slots'])} slots, {int(entry['keys'])} keys"
        )
    return lines


def shard_fanout(shards: int) -> str:
    """One-line description of how a plan fans out over key shards.

    The sharded runtime (DESIGN.md §7) replicates the *whole* plan on
    every shard over a disjoint key slice; this line also names the
    coordinator's merge step.
    """
    return (
        f"x{shards} key-hash shards (plan replicated per shard; "
        f"{SHARD_MERGE_DESCRIPTION})"
    )


def _window_call(window: Window, style: str) -> str:
    if style == "trill":
        if window.is_tumbling:
            return f".Tumbling({window.range})"
        return f".Hopping({window.range}, {window.slide})"
    # Flink DataStream API style.
    if window.is_tumbling:
        return f".window(TumblingEventTimeWindows.of({window.range}))"
    return (
        f".window(SlidingEventTimeWindows.of({window.range}, {window.slide}))"
    )


def _aggregate_call(node: WindowAggregateNode, style: str) -> str:
    label = node.window.label
    func = node.aggregate.name.capitalize()
    origin = "" if node.reads_raw else "  /* from sub-aggregates */"
    if style == "trill":
        tag = "Factor" if node.is_factor else "GroupAggregate"
        return f".{tag}('{label}', w => w.{func}(e => e.V)){origin}"
    suffix = ".name(\"factor\")" if node.is_factor else ""
    return f".aggregate(new {func}Aggregate()){suffix}{origin}"


def to_trill(plan: LogicalPlan) -> str:
    """Render ``plan`` as a Trill-style expression (Figure 2(b)/(c))."""
    return _render_expression(plan, style="trill")


def to_flink(plan: LogicalPlan) -> str:
    """Render ``plan`` as a Flink DataStream-style expression (§V-F)."""
    return _render_expression(plan, style="flink")


def _render_expression(plan: LogicalPlan, style: str) -> str:
    lines: list[str] = []
    counters = {"n": 0}

    def fresh(prefix: str) -> str:
        counters["n"] += 1
        return f"{prefix}{counters['n']}"

    names: dict[int, str] = {}

    def emit(node: PlanNode) -> str:
        if node.node_id in names:
            return names[node.node_id]
        if isinstance(node, SourceNode):
            names[node.node_id] = node.name
            return node.name
        if isinstance(node, MulticastNode):
            upstream = emit(node.inputs[0])
            var = fresh("s")
            if style == "trill":
                lines.append(f"var {var} = {upstream}.Multicast();")
            else:
                lines.append(f"DataStream {var} = {upstream};  // multicast")
            names[node.node_id] = var
            return var
        if isinstance(node, WindowAggregateNode):
            upstream = emit(node.inputs[0])
            var = fresh("w")
            call = _window_call(node.window, style) + _aggregate_call(
                node, style
            )
            prefix = "var" if style == "trill" else "DataStream"
            lines.append(f"{prefix} {var} = {upstream}{call};")
            names[node.node_id] = var
            return var
        if isinstance(node, UnionNode):
            parts = [emit(child) for child in node.inputs]
            var = fresh("u")
            head, *rest = parts
            chain = "".join(f".Union({p})" for p in rest)
            prefix = "var" if style == "trill" else "DataStream"
            if style == "flink":
                chain = "".join(f".union({p})" for p in rest)
            lines.append(f"{prefix} {var} = {head}{chain};")
            names[node.node_id] = var
            return var
        raise TypeError(f"unknown plan node {node!r}")  # pragma: no cover

    result = emit(plan.root)
    lines.append(f"return {result};")
    return "\n".join(lines)


def to_tree(
    plan: LogicalPlan,
    engine: "str | None" = None,
    shards: "int | object | None" = None,
) -> str:
    """ASCII tree of the plan, root at the top (Figure 2(a) style).

    With ``engine`` given, each aggregate line is annotated with the
    physical execution path that engine would use (``via panes[...]``,
    ``via subagg-fold[...]``, ...).  With ``shards`` given — a
    fan-out count or a live :class:`~repro.runtime.ShardedSession` —
    the header is annotated with the key-shard fan-out the sharded
    runtime would execute the plan under (DESIGN.md §7); a session
    additionally contributes its decayed per-shard load counters
    (DESIGN.md §12).
    """
    shards, loads = resolve_shards(shards)
    header = f"[{plan.description}]"
    if engine is not None:
        header += f" engine={engine}"
    if shards is not None:
        header += f" shards={shards}"
    lines: list[str] = [header]
    if shards is not None:
        lines.append(f"  fan-out: {shard_fanout(shards)}")
    if loads is not None:
        lines.extend(shard_load_lines(loads))

    def label(node: PlanNode) -> str:
        if isinstance(node, SourceNode):
            return f"Source({node.name})"
        if isinstance(node, MulticastNode):
            return "MultiCast"
        if isinstance(node, WindowAggregateNode):
            window = node.window
            dur = format_duration(window.range)
            if not window.is_tumbling:
                dur += f" every {format_duration(window.slide)}"
            origin = "raw" if node.reads_raw else f"from {node.provider.label}"
            tag = " (factor)" if node.is_factor else ""
            physical = (
                "" if engine is None
                else f" via {physical_path(node, engine)}"
            )
            return (
                f"Agg[{node.aggregate.name} over {dur}] <- {origin}{tag}"
                f"{physical}"
            )
        if isinstance(node, UnionNode):
            return "Union"
        return node.kind  # pragma: no cover

    def walk(node: PlanNode, indent: int) -> None:
        lines.append("  " * indent + label(node))
        for child in node.inputs:
            walk(child, indent + 1)

    walk(plan.root, 0)
    return "\n".join(lines)
