"""``run.py compare A B``: two sets of runs, metric by metric.

A and B are result files written with ``--out`` (one JSON record per
run).  For every workload and metric present in both, prints each side's
median and quartiles and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``better`` / ``worse``: B's median moved by more than the bound (and by
  more than A's own quartile spread), or — when a side's spread exceeds
  the bound — every run of B beats (or trails) every run of A;
* ``unresolved``: anything else; the note says whether the change stayed
  within the bound or the spread was too wide to tell.

Per-layer metrics have no bound; they get ``better``/``worse`` only when
every run of one side beats every run of the other.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> dict[tuple[str, str], list[float]]:
    runs: dict[tuple[str, str], list[float]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, metric in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(
                    metric["value"]
                )
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[float], b: list[float], higher: bool,
            bound: float | None) -> tuple[str, str]:
    sign = 1.0 if higher else -1.0
    qa, qb = quartiles(a), quartiles(b)
    base = qa[1] or 1e-12
    gain = sign * (qb[1] - qa[1]) / abs(base)
    spread_a = (qa[2] - qa[0]) / abs(base)
    spread_b = (qb[2] - qb[0]) / abs(qb[1] or 1e-12)
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    all_worse = all(sign * (y - x) < 0 for x in a for y in b)
    if bound is None or max(spread_a, spread_b) > bound:
        if all_better:
            return "better", "every B run beats every A run"
        if all_worse:
            return "worse", "every B run trails every A run"
        why = "no bound" if bound is None else "spread wider than bound"
        return "unresolved", why
    if gain > bound and gain > spread_a:
        return "better", f"{gain:+.1%} beyond bound {bound:.0%}"
    if -gain > bound and -gain > spread_a:
        return "worse", f"{gain:+.1%} beyond bound {bound:.0%}"
    return "unresolved", f"{gain:+.1%} within bound {bound:.0%}"


def main(argv: list[str], spec: dict) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.jsonl B.jsonl")
        return 2
    a, b = load(argv[0]), load(argv[1])
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'workload':14} {'metric':28} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32}  verdict")
    worse = 0
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = metrics.get(name)
        if metric is None:
            continue
        outcome, note = verdict(a[key], b[key], metric["better"] == "higher",
                                metric.get("bound"))
        worse += outcome == "worse"
        qa = "/".join(f"{v:.4g}" for v in quartiles(a[key]))
        qb = "/".join(f"{v:.4g}" for v in quartiles(b[key]))
        print(f"{workload:14} {name:28} {qa:>32} {qb:>32}  {outcome} "
              f"({note}; n={len(a[key])}/{len(b[key])}, {metric['unit']})")
    return 1 if worse else 0
