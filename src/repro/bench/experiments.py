"""Experiment definitions — one per table/figure of the paper.

Every experiment returns structured results *and* can render the same
rows/series the paper reports; ``factor-windows experiment <id>`` is
the one runner.  Default stream sizes are scaled down (the paper uses
1M/10M/32M events on a C# engine; a Python engine gets the same shapes
from fewer events), and every entry point takes ``events=`` to scale
back up.  Every figure is MIN.

Mapping (see DESIGN.md §4):

* Figures 11/14/15/16/20/21 → :func:`throughput_panels`
* Figures 17/18             → :func:`throughput_panels` (``dataset="real"``)
* Tables I/II/IV            → :func:`boost_summary_table`
* Table III                 → :func:`boost_summary_table` (sizes 15/20)
* Figure 12                 → :func:`optimizer_overhead`
* Figures 13/22             → :func:`scotty_comparison`
* Figure 19                 → :func:`cost_model_correlation`
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..aggregates.registry import MIN
from ..core.optimizer import optimize
from ..engine.events import EventBatch
from ..windows.coverage import CoverageSemantics
from ..workloads.debs import debs_like_stream
from ..workloads.generators import RandomGen, SequentialGen
from ..workloads.streams import constant_rate_stream
from .analysis import SampleStats, pearson_r
from .harness import BoostSummary, ComparisonResult, compare_plans
from .reporting import format_series, format_table

#: Default scaled-down stream size for experiments (paper: 1M-32M).
DEFAULT_EVENTS = 200_000
DEFAULT_RUNS = 10
_BASE_SEED = 100


def make_stream(dataset: str, events: int, seed: int = 1) -> EventBatch:
    """Build the experiment stream: ``synthetic`` or ``real`` (DEBS-like)."""
    if dataset == "real":
        return debs_like_stream(events, seed=seed)
    return constant_rate_stream(events, seed=seed)


def _generator(name: str):
    return SequentialGen() if name.startswith("s") else RandomGen()


def _semantics(tumbling: bool) -> CoverageSemantics:
    # The paper's panels: tumbling window sets exercise partitioned-by,
    # hopping sets exercise the general covered-by relation (§V-B).
    if tumbling:
        return CoverageSemantics.PARTITIONED_BY
    return CoverageSemantics.COVERED_BY


@dataclass
class PanelResult:
    """One figure panel: per-run plan comparisons."""

    generator: str
    tumbling: bool
    set_size: int
    comparisons: list[ComparisonResult] = field(default_factory=list)

    @property
    def label(self) -> str:
        semantics = "partitioned by" if self.tumbling else "covered by"
        gen = "RandomGen" if self.generator.startswith("r") else "SequentialGen"
        return f"{gen}, '{semantics}'"

    @property
    def setup_code(self) -> str:
        prefix = "R" if self.generator.startswith("r") else "S"
        kind = "tumbling" if self.tumbling else "hopping"
        return f"{prefix}-{self.set_size}-{kind}"

    def series(self, include_scotty: bool = False) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        if include_scotty:
            out["Flink"] = [c.original.throughput for c in self.comparisons]
            out["Scotty"] = [
                c.scotty.throughput if c.scotty else float("nan")
                for c in self.comparisons
            ]
            out["Factor Windows"] = [
                (c.with_factors or c.original).throughput
                for c in self.comparisons
            ]
            return out
        out["Original Plan"] = [c.original.throughput for c in self.comparisons]
        out["Plan w/o Factor Windows"] = [
            (c.rewritten or c.original).throughput for c in self.comparisons
        ]
        out["Plan w/ Factor Windows"] = [
            (c.with_factors or c.original).throughput
            for c in self.comparisons
        ]
        return out

    def render(self, include_scotty: bool = False) -> str:
        return format_series(
            self.series(include_scotty),
            title=self.label,
            x_label="run",
        )


def run_panel(
    generator: str,
    tumbling: bool,
    set_size: int,
    batch: EventBatch,
    runs: int = DEFAULT_RUNS,
    include_scotty: bool = False,
) -> PanelResult:
    """Run one figure panel: ``runs`` freshly generated window sets."""
    gen = _generator(generator)
    panel = PanelResult(generator=generator, tumbling=tumbling, set_size=set_size)
    semantics = _semantics(tumbling)
    for i in range(runs):
        windows = gen.generate(set_size, tumbling=tumbling, seed=_BASE_SEED + i)
        panel.comparisons.append(
            compare_plans(
                windows,
                MIN,
                batch,
                include_scotty=include_scotty,
                semantics=semantics,
            )
        )
    return panel


def throughput_panels(
    dataset: str = "synthetic",
    set_size: int = 5,
    events: int = DEFAULT_EVENTS,
    runs: int = DEFAULT_RUNS,
    include_scotty: bool = False,
) -> list[PanelResult]:
    """Figures 11/14-18/20/21: the four panels (R/S × tumbling/hopping)."""
    batch = make_stream(dataset, events)
    panels = []
    for generator in ("random", "sequential"):
        for tumbling in (True, False):
            panels.append(
                run_panel(
                    generator,
                    tumbling,
                    set_size,
                    batch,
                    runs=runs,
                    include_scotty=include_scotty,
                )
            )
    return panels


def boost_summary_table(
    dataset: str = "synthetic",
    set_sizes: tuple[int, ...] = (5, 10),
    events: int = DEFAULT_EVENTS,
    runs: int = DEFAULT_RUNS,
) -> list[BoostSummary]:
    """Tables I/II/III/IV: mean/max boosts for every setup."""
    batch = make_stream(dataset, events)
    summaries = []
    for generator in ("random", "sequential"):
        for set_size in set_sizes:
            for tumbling in (True, False):
                panel = run_panel(
                    generator,
                    tumbling,
                    set_size,
                    batch,
                    runs=runs,
                )
                summaries.append(
                    BoostSummary.from_comparisons(
                        panel.setup_code, panel.comparisons
                    )
                )
    return summaries


@dataclass
class OverheadPoint:
    """Figure 12: optimizer overhead for one window-set setting."""

    setup: str
    semantics: CoverageSemantics
    stats: SampleStats


def optimizer_overhead(
    set_sizes: tuple[int, ...] = (5, 10, 15, 20, 40),
    runs: int = DEFAULT_RUNS,
) -> list[OverheadPoint]:
    """Figure 12: average factor-window optimization time vs |W|.

    Tumbling sets exercise partitioned-by search (Algorithm 5), hopping
    sets the covered-by search (Algorithm 2); no stream is executed.
    |W| = 40 is past the paper's range: it is the size a live
    session's shared group reaches when four ten-window queries
    register (DESIGN.md §6), where every ``register`` pays this search.
    """
    points: list[OverheadPoint] = []
    for generator in ("random", "sequential"):
        gen = _generator(generator)
        prefix = "R" if generator.startswith("r") else "S"
        for set_size in set_sizes:
            for tumbling in (True, False):
                semantics = _semantics(tumbling)
                timings = []
                for i in range(runs):
                    windows = gen.generate(
                        set_size, tumbling=tumbling, seed=_BASE_SEED + i
                    )
                    started = time.perf_counter()
                    optimize(windows, MIN, semantics_override=semantics)
                    timings.append(time.perf_counter() - started)
                points.append(
                    OverheadPoint(
                        setup=f"{prefix}-{set_size}",
                        semantics=semantics,
                        stats=SampleStats.of(timings),
                    )
                )
    return points


def render_overhead(points: list[OverheadPoint]) -> str:
    rows = [
        (
            p.setup,
            str(p.semantics),
            f"{p.stats.mean * 1e3:.2f}",
            f"{p.stats.std * 1e3:.2f}",
        )
        for p in points
    ]
    return format_table(
        ["Setting", "Semantics", "Mean (ms)", "Std (ms)"],
        rows,
        title="Figure 12: factor-window optimization overhead",
    )


def scotty_comparison(
    set_size: int = 10,
    events: int = DEFAULT_EVENTS,
    runs: int = DEFAULT_RUNS,
) -> list[PanelResult]:
    """Figures 13/22: Flink (original) vs Scotty (slicing) vs factor
    windows, on the Scotty benchmark generator's constant-rate data."""
    batch = make_stream("synthetic", events)
    panels = []
    for generator in ("random", "sequential"):
        for tumbling in (True, False):
            panels.append(
                run_panel(
                    generator,
                    tumbling,
                    set_size,
                    batch,
                    runs=runs,
                    include_scotty=True,
                )
            )
    return panels


@dataclass
class CorrelationPanel:
    """Figure 19: predicted vs observed speedup points for one panel.

    One set of runs gives two observed axes: ``actual`` is the
    wall-clock throughput ratio (the paper's γ_T) and ``work`` the
    deterministic processed-pair ratio, which isolates the cost
    model's fidelity from timing noise.
    """

    label: str
    predicted: list[float] = field(default_factory=list)
    actual: list[float] = field(default_factory=list)
    work: list[float] = field(default_factory=list)

    @property
    def r(self) -> float:
        return pearson_r(self.predicted, self.actual)

    @property
    def r_work(self) -> float:
        return pearson_r(self.predicted, self.work)


def cost_model_correlation(
    set_sizes: tuple[int, ...] = (5, 10),
    events: int = DEFAULT_EVENTS,
    runs: int = DEFAULT_RUNS,
) -> list[CorrelationPanel]:
    """Figure 19: γ_C (cost-model speedup, w/ over w/o factor windows)
    against the observed speedup, Pearson r per panel, on wall clock
    (``r``) and on processed pairs (``r_work``)."""
    batch = make_stream("synthetic", events)
    panels = []
    for generator in ("random", "sequential"):
        for tumbling in (True, False):
            label = PanelResult(generator, tumbling, 0).label
            panel = CorrelationPanel(label=label)
            for set_size in set_sizes:
                result = run_panel(
                    generator, tumbling, set_size, batch, runs=runs
                )
                for comparison in result.comparisons:
                    rewritten = comparison.rewritten
                    factors = comparison.with_factors
                    if rewritten is None or factors is None:
                        continue
                    if factors.cost == 0 or rewritten.pairs == 0:
                        continue
                    panel.predicted.append(rewritten.cost / factors.cost)
                    panel.actual.append(
                        factors.throughput / rewritten.throughput
                    )
                    panel.work.append(rewritten.pairs / factors.pairs)
            panels.append(panel)
    return panels


def render_correlation(panels: list[CorrelationPanel]) -> str:
    rows = [
        (p.label, len(p.predicted), f"{p.r:.3f}", f"{p.r_work:.4f}")
        for p in panels
    ]
    return format_table(
        ["Panel", "Points", "Pearson r (wall clock)", "Pearson r (pairs)"],
        rows,
        title="Figure 19: cost-model speedup vs observed speedup",
    )
