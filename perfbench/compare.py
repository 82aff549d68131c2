"""Compare two sets of benchmark results, per workload and per metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result records written by run.py (its --results
directory).  For every end-to-end metric of every workload this prints each
side's median and quartiles, the change of the medians, and a verdict against
the metric's bound in BENCHMARK.json:

  ok          the new median is not worse than the base median by more than the bound
  REGRESSED   it is worse by more than the bound
  unresolved  a side's spread (quartile distance over median) exceeds the bound,
              unless every new run is better than every base run ("better")

Traced records (--trace 1) are compared the same way for the per-layer
metrics, without verdicts.  Failed operations are shown as a share of those
attempted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(directory: str) -> dict:
    """{(workload, trace): [record, ...]} from every result file in directory."""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["trace"])].append(rec)
    return out


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[float, str]:
    """(relative change of the medians, positive when worse; verdict)."""
    b, n = statistics.median(base), statistics.median(new)
    worse = (n - b) / b if better == "lower" else (b - n) / b
    if max(spread(base), spread(new)) > bound:
        wins = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
        return worse, "better" if wins else "unresolved"
    return worse, "REGRESSED" if worse > bound else "ok"


def _values(records, section, metric):
    return [r[section][metric]["value"] for r in records if metric in r.get(section, {})]


def compare(base: dict, new: dict, spec: dict) -> list[str]:
    lines = []
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for workload in sorted({w for w, _ in base} | {w for w, _ in new}):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            b_recs, n_recs = base.get((workload, trace), []), new.get((workload, trace), [])
            if not b_recs or not n_recs:
                continue
            lines.append(f"{workload} ({'traced' if trace else 'end to end'}; "
                         f"{len(b_recs)} base runs, {len(n_recs)} new runs)")
            for side, recs in (("base", b_recs), ("new", n_recs)):
                att = sum(r["attempted"] for r in recs)
                fail = sum(r["failed"] for r in recs)
                ok = all(r["correct"] for r in recs)
                lines.append(f"  {side}: {fail}/{att} operations failed, correct={str(ok).lower()}")
            names = {}
            for r in b_recs + n_recs:
                names.update(r.get(section, {}))
            for metric in names:
                bv, nv = _values(b_recs, section, metric), _values(n_recs, section, metric)
                if not bv or not nv:
                    continue
                bq, nq = summary(bv), summary(nv)
                text = (f"  {metric:34s} base {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
                        f"new {nq[1]:12.6g} [{nq[0]:.6g}, {nq[2]:.6g}]")
                if metric in bounds:
                    m = bounds[metric]
                    worse, word = verdict(bv, nv, m["better"], m["bound"])
                    text += f"  worse by {worse:+.1%} (bound {m['bound']:.0%}): {word}"
                lines.append(text)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    lines = compare(load(args.base), load(args.new), spec)
    print("\n".join(lines) if lines else "no workload has results on both sides")
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
