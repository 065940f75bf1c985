"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.json... -- CHANGE.json...

Each file is one bench/run.py result file.  For every (workload, metric)
pair found on both sides it prints each side's median and quartiles,
the change's pair wins (parent file i against change file i, so give
the files in the order the runs alternated) and, for end-to-end
metrics, a verdict against the metric's bound in BENCHMARK.json:

``unresolved``
    the parent's quartile spread is wider than the bound, so these runs
    cannot tell a regression of that size from noise, unless every
    change run beats every parent run;
``worse``
    the change's median is worse than the parent's by more than the
    bound;
``better``
    better by more than the bound, or, over at least ten pairs, winning
    nine tenths of them with medians further apart than the parent's
    quartile spread;
``same``
    anything else.

Quartiles come from :func:`stats.quartiles`.  Per-layer metrics have no
bound and get no verdict.  Each workload gets its own summary row.
Exits 1 when any pair is worse or unresolved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent

#: Pairs needed before a win ratio can support a "better" verdict.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, one per result file, in file order."""
    values: dict[tuple[str, str], list[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, result in record["workloads"].items():
            for metric, entry in result["metrics"].items():
                if entry["value"] is not None:
                    values.setdefault((workload, metric), []).append(
                        entry["value"])
    return values


def verdict(parent: list[float], change: list[float], bound: float,
            higher_is_better: bool) -> str:
    """One of better / same / worse / unresolved (see module doc)."""
    sign = -1.0 if higher_is_better else 1.0   # sign * (a - b) > 0: a worse
    p_med, c_med = stats.median(parent), stats.median(change)
    q1, _, q3 = stats.quartiles(parent)
    scale = abs(p_med) or 1.0
    worse_by = sign * (c_med - p_med) / scale
    beats_all = all(sign * (c - p) < 0 for c in change for p in parent)
    if (q3 - q1) / scale > bound and not beats_all:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    if -worse_by > bound or (len(pairs) >= MIN_PAIRS
                             and wins >= WIN_SHARE * len(pairs)
                             and -worse_by * scale > q3 - q1):
        return "better"
    return "same"


def _fmt(values: list[float]) -> str:
    q1, med, q3 = stats.quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(parent_paths, change_paths, declared: dict) -> tuple[list, dict]:
    """Rows ``(workload, metric, parent, change, wins, pairs, verdict)``
    and a per-workload verdict count."""
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    higher_better = {m["name"]: m["better"] == "higher"
                     for m in declared["per_layer"]}
    parent, change = load(parent_paths), load(change_paths)
    rows, summary = [], {}
    for key in sorted(parent.keys() & change.keys()):
        workload, metric = key
        p, c = parent[key], change[key]
        if metric in bounds:
            higher = bounds[metric]["better"] == "higher"
            result = verdict(p, c, bounds[metric]["bound"], higher)
            counts = summary.setdefault(workload, {})
            counts[result] = counts.get(result, 0) + 1
        else:
            higher, result = higher_better.get(metric, False), "-"
        sign = -1.0 if higher else 1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        rows.append((workload, metric, p, c, wins, min(len(p), len(c)),
                     result))
    return rows, summary


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    cut = argv.index("--")
    parent_paths, change_paths = argv[:cut], argv[cut + 1:]
    if not parent_paths or not change_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows, summary = compare(parent_paths, change_paths, declared)
    print(f"parent: {len(parent_paths)} run(s), change: "
          f"{len(change_paths)} run(s); median [q1, q3]")
    for workload in sorted({r[0] for r in rows}):
        counts = summary.get(workload, {})
        print(f"{workload}: " + (", ".join(
            f"{n} {v}" for v, n in sorted(counts.items())) or "no verdicts"))
        for _, metric, p, c, wins, pairs, result in (
                r for r in rows if r[0] == workload):
            print(f"  {metric:<30} {_fmt(p):>30} -> {_fmt(c):<30} "
                  f"wins {wins}/{pairs}  {result}")
    bad = any(v in ("worse", "unresolved")
              for counts in summary.values() for v in counts)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
