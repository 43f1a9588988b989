"""``--check-repeat``: the same commit measured twice must agree.

Runs the end-to-end set twice in one invocation — sets A and B of
``RUNS_PER_SET`` runs per workload each, interleaved (A forwards, B
backwards, A forwards, ...), every run in a fresh process — and prints
each metric's A/B medians with their quartiles and the relative gap.
A metric whose own quartile spread within a set is wider than its bound
is *unresolved*: the sets cannot tell a gap of that size from noise, so
it neither passes nor fails.  A resolved metric whose gap exceeds the
bound fails the command.  With ``--trace`` the per-layer ladder is run
twice as well and its exact counts must repeat exactly.
"""

from __future__ import annotations

import json

import measure

#: One run in ten lands in a stretch of host the idle-time readings do
#: not explain (a p99 40 % off the other nine); medians of five
#: interleaved runs shrug it off.
RUNS_PER_SET = 5

#: Per-layer metrics that are counts of the program's own work: equal
#: inputs must give equal values, run after run.
EXACT_COUNTS = (
    "core.cost_ratio", "core.factor_windows", "engine.logical_pairs",
    "engine.physical_touches", "runtime.sharding.total_physical",
    "runtime.sharding.slots_moved",
)


def load_bounds() -> dict:
    spec = json.loads((measure.REPO_ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def check_repeat(run_child, names, seed, seconds, trace: bool) -> int:
    """``run_child(name, seed, seconds, trace)`` runs one workload in a
    fresh process and returns its report."""
    bounds = load_bounds()
    sets = {label: {name: [] for name in names} for label in "AB"}
    for round_ in range(RUNS_PER_SET):
        for label, order in (("A", names), ("B", tuple(reversed(names)))):
            print(f"##### set {label}, run {round_ + 1}: {', '.join(order)}")
            for name in order:
                sets[label][name].append(run_child(name, seed, seconds, False))
    failures = unresolved = 0
    print("\n##### A/B agreement (gap = (B - A) / A)")
    print(f"{'workload':<13} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'gap':>8} {'bound':>6}  verdict")
    for name in names:
        runs = sets["A"][name] + sets["B"][name]
        if not all(run["correct"] for run in runs):
            failures += 1
            print(f"{name:<13} failed_share "
                  f"{[run['failed_share'] for run in runs]}  WRONG ANSWER")
        for metric, bound in bounds.items():
            a, b = (
                measure.quartiles(
                    [run["metrics"][metric]["value"] for run in sets[label][name]]
                )
                for label in "AB"
            )
            gap = (b[1] - a[1]) / a[1]
            spread = max((q3 - q1) / q2 for q1, q2, q3 in (a, b))
            verdict = "ok"
            if spread > bound:
                verdict = f"unresolved (own spread {spread:.3f})"
                unresolved += 1
            elif abs(gap) > bound:
                verdict = "GAP EXCEEDS BOUND"
                failures += 1
            print(f"{name:<13} {metric:<18} {a[1]:>12.5g} {b[1]:>12.5g} "
                  f"{gap:>+8.3f} {bound:>6.2f}  {verdict}")
            print(f"{'':<32} [{a[0]:.5g}, {a[2]:.5g}] [{b[0]:.5g}, {b[2]:.5g}]"
                  f"  n={RUNS_PER_SET},{RUNS_PER_SET}")
    if trace:
        print("\n##### exact counts, traced run A vs B")
        for name in names:
            a = run_child(name, seed, seconds, True)
            b = run_child(name, seed, seconds, True)
            if not (a["correct"] and b["correct"]):
                failures += 1
            for metric in EXACT_COUNTS:
                va = a["metrics"][metric]["value"]
                vb = b["metrics"][metric]["value"]
                same = va == vb
                failures += 0 if same else 1
                print(f"{name:<13} {metric:<34} {va:>16.10g} {vb:>16.10g}  "
                      f"{'identical' if same else 'DIFFERENT'}")
    print(f"\ncheck-repeat: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} problem(s), {unresolved} metric(s) unresolved)")
    return 0 if failures == 0 else 1
