"""Paired A/B runs of the declared benchmark between two git revisions.

Usage:

    python tools/ab.py REV_A REV_B --workload pool-mix --pairs 5
    python tools/ab.py HEAD~1 HEAD --workload cold-mix --pairs 10
    python tools/ab.py HEAD~1 HEAD --workload net-mix --pairs 5 --baseline benchmarks/baseline.json
    python tools/ab.py HEAD~1 HEAD --workload net-mix --pairs 3 --trace

Both revisions are checked out with ``git worktree`` under one temporary
directory (removed afterwards), and ``perfbench/run.py`` runs from each
checkout, so each side runs exactly the benchmark and program it committed.
Pair ``p`` (1-based) runs both sides with ``--seed p``; odd pairs run A
first and even pairs B first, so a drift in host speed does not favour one
side.  Each run lasts ``run_seconds`` from ``BENCHMARK.json``, as the
benchmark itself does.

The report lists, per metric, each side's median and quartiles, B's
change and the pairs B won.  Every end-to-end metric whose
median moved the wrong way by more than its ``BENCHMARK.json`` bound is
flagged.  ``--baseline PATH`` writes B's medians for the workload, the
median host-speed probe and the Python version into ``PATH`` (other
workloads already in the file are kept).

``--trace`` runs every side with ``--trace 1`` instead and tabulates the
per-layer metrics ``BENCHMARK.json`` declares (a traced run reports no
end-to-end metric, so nothing is flagged).  It cannot be combined with
``--baseline``: a baseline records end-to-end medians.

Exit status: 0 when every run answered every request correctly and no
end-to-end metric is outside its bound, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: ``perfbench/run.py`` prints the run's median speed probe on the line
#: before its JSON result.
PROBE = re.compile(r"speed probe median ([0-9.]+) us")

#: One side's run: its metric values and its median speed probe (us).
Run = Tuple[Dict[str, float], Optional[float]]


def run_bench(checkout: Path, workload: str, seed: int, seconds: int, trace: bool = False) -> Run:
    """Run ``perfbench/run.py`` in ``checkout``; :class:`RuntimeError` if
    it printed no result or answered any request wrongly."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        command += ["--trace", "1"]
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError(f"{checkout.name} seed {seed}: no result\n{completed.stderr[-2000:]}") from None
    if completed.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{checkout.name} seed {seed}: {result['failed']} of {result['attempted']} wrong")
    probe = PROBE.search(lines[-2]) if len(lines) > 1 else None
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    return metrics, float(probe.group(1)) if probe else None


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def summarize(
    pairs: List[Tuple[Run, Run]], spec: dict
) -> Tuple[List[dict], List[str]]:
    """Per-metric rows and the end-to-end metrics outside their bound.

    ``spec`` is ``BENCHMARK.json``; a metric it does not declare is shown
    without a direction, so it has no pairs won and is never flagged.
    """
    declared = {entry["name"]: entry for entry in spec["end_to_end"] + spec["per_layer"]}
    end_to_end = {entry["name"] for entry in spec["end_to_end"]}
    rows, flagged = [], []
    for name in pairs[0][0][0]:
        side_a = [a[0][name] for a, _b in pairs]
        side_b = [b[0][name] for _a, b in pairs]
        median_a, median_b = statistics.median(side_a), statistics.median(side_b)
        change = (median_b - median_a) / median_a if median_a else 0.0
        better = declared.get(name, {}).get("better")
        won = None
        if better is not None:
            sign = 1 if better == "higher" else -1
            won = sum(1 for a, b in zip(side_a, side_b) if sign * (b - a) > 0)
        rows.append(
            {"metric": name, "a": median_a, "b": median_b, "change": change,
             "a_quartiles": quartiles(side_a), "b_quartiles": quartiles(side_b), "b_won": won}
        )
        if name in end_to_end:
            bound = declared[name]["bound"]
            worse = -change if better == "higher" else change
            if worse > bound:
                flagged.append(f"{name}: {change:+.1%} is worse than its {bound:.0%} bound")
    return rows, flagged


def per_layer_rows(rows: List[dict], spec: dict) -> List[dict]:
    """The rows of the per-layer metrics ``spec`` declares, in its order."""
    by_name = {row["metric"]: row for row in rows}
    return [by_name[entry["name"]] for entry in spec["per_layer"] if entry["name"] in by_name]


def render(rows: List[dict], pairs: int) -> str:
    lines = [
        "| metric | A median | A q1–q3 | B median | B q1–q3 | change | B won |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        spreads = ["{:.4g}–{:.4g}".format(*row[key]) for key in ("a_quartiles", "b_quartiles")]
        won = "–" if row["b_won"] is None else f"{row['b_won']}/{pairs}"
        lines.append(
            f"| `{row['metric']}` | {row['a']:.4g} | {spreads[0]} | {row['b']:.4g} | {spreads[1]} "
            f"| {row['change']:+.1%} | {won} |"
        )
    return "\n".join(lines)


def write_baseline(path: Path, workload: str, rows: List[dict], probes: List[float], pairs: int, seconds: int) -> None:
    baseline = json.loads(path.read_text()) if path.exists() else {}
    baseline["python"] = platform.python_version()
    workloads = baseline.setdefault("workloads", {})
    workloads[workload] = {
        "pairs": pairs,
        "seconds": seconds,
        "probe_median_us": round(statistics.median(probes), 1) if probes else None,
        "medians": {row["metric"]: round(row["b"], 4) for row in rows},
    }
    baseline["workloads"] = dict(sorted(workloads.items()))
    path.write_text(json.dumps(baseline, indent=2) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--baseline", type=Path, default=None)
    parser.add_argument("--trace", action="store_true", help="compare the per-layer metrics of traced runs")
    args = parser.parse_args(argv)
    if args.trace and args.baseline is not None:
        parser.error("--trace cannot write a --baseline: traced runs report no end-to-end metric")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        checkouts = {"A": Path(scratch) / "a", "B": Path(scratch) / "b"}
        try:
            for side, rev in (("A", args.rev_a), ("B", args.rev_b)):
                subprocess.run(
                    ["git", "worktree", "add", "--detach", str(checkouts[side]), rev],
                    cwd=REPO, check=True, capture_output=True,
                )
            pairs: List[Tuple[Run, Run]] = []
            for seed in range(1, args.pairs + 1):
                order = ("A", "B") if seed % 2 else ("B", "A")
                try:
                    runs = {
                        side: run_bench(checkouts[side], args.workload, seed, seconds, args.trace)
                        for side in order
                    }
                except RuntimeError as error:
                    print(f"FAILED {error}", file=sys.stderr)
                    return 1
                pairs.append((runs["A"], runs["B"]))
                progress = "traced" if args.trace else ", ".join(
                    f"{side} {runs[side][0].get('throughput_rps', 0):.1f} req/s" for side in "AB"
                )
                print(f"pair {seed} ({order[0]} first): {progress}", flush=True)
        finally:
            for checkout in checkouts.values():
                subprocess.run(["git", "worktree", "remove", "--force", str(checkout)], cwd=REPO, capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=REPO, capture_output=True)

    rows, flagged = summarize(pairs, spec)
    if args.trace:
        rows = per_layer_rows(rows, spec)
    probes = {side: [pair[index][1] for pair in pairs if pair[index][1] is not None] for index, side in enumerate("AB")}
    print(f"{args.workload}: A={args.rev_a} B={args.rev_b}, {args.pairs} {'traced ' if args.trace else ''}pairs, "
          f"{seconds} s each, Python {platform.python_version()}")
    print(render(rows, args.pairs))
    for side in "AB":
        if probes[side]:
            print(f"{side} speed probe median {statistics.median(probes[side]):.1f} us")
    for line in flagged:
        print(f"OUTSIDE BOUND {line}")
    if args.baseline is not None:
        write_baseline(args.baseline, args.workload, rows, probes["B"], args.pairs, seconds)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
