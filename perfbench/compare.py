"""Compare two files of benchmark records (the JSON lines run.py appends).

For each workload it prints every end-to-end metric as median [q1, q3] over
the untraced runs of each file, with the change of the medians, and then
the ratio new/base of each per-layer time (metrics ending in `_s`, medians
over the traced runs), so a saving can be placed in a layer. A change worse
than the metric's bound in BENCHMARK.json is flagged; where the base's own
spread is wider than the bound, the metric is reported as unresolved.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def _load(path: str) -> dict:
    """(workload, trace) -> list of records."""
    groups = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def _values(records: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in records if name in r["metrics"]]


def _calib(records: list[dict]) -> str:
    vals = [c for r in records for c in r["host"]["calib_s"]]
    return f"{statistics.median(vals):.4f}" if vals else "-"


def compare(base_path: str, new_path: str, spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    base, new = _load(base_path), _load(new_path)
    workloads = sorted({w for w, _ in base} | {w for w, _ in new})
    for w in workloads:
        b0, n0 = base.get((w, 0), []), new.get((w, 0), [])
        print(f"== {w}: {len(b0)} base runs, {len(n0)} new runs; host calib_s "
              f"{_calib(b0)} -> {_calib(n0)}")
        for m in spec["end_to_end"]:
            bv, nv = _values(b0, m["name"]), _values(n0, m["name"])
            if not bv or not nv:
                continue
            (bm, bq1, bq3), (nm, nq1, nq3) = _summary(bv), _summary(nv)
            change = (nm - bm) / bm if bm else 0.0
            worse = change if m["better"] == "lower" else -change
            spread = (bq3 - bq1) / bm if bm else 0.0
            if worse > m["bound"]:
                verdict = "WORSE beyond bound"
            elif spread > m["bound"]:
                verdict = "unresolved (base spread above bound)"
            else:
                verdict = ""
            print(f"  {m['name']:16s} {bm:11.5g} [{bq1:.5g}, {bq3:.5g}] -> "
                  f"{nm:11.5g} [{nq1:.5g}, {nq3:.5g}] {m['unit']:8s} "
                  f"{change:+7.1%} {verdict}")
        b1, n1 = base.get((w, 1), []), new.get((w, 1), [])
        if b1 and n1:
            print(f"  per-layer times, new/base ({len(b1)} and {len(n1)} traced runs):")
            for m in spec["per_layer"]:
                if not m["name"].endswith("_s"):
                    continue
                bv, nv = _values(b1, m["name"]), _values(n1, m["name"])
                if not bv or not nv:
                    continue
                bm, nm = statistics.median(bv), statistics.median(nv)
                if bm == 0 and nm == 0:
                    continue
                ratio = f"{nm / bm:7.3f}" if bm else "    new"
                print(f"    {m['name']:34s} {bm:11.5g} -> {nm:11.5g} s  x{ratio}")
    return 0
