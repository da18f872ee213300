#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each argument is a file (or a directory of *.jsonl files) of records
written by `perfbench/run.py --out`.  Records are grouped by workload;
untraced records are compared on every end-to-end metric of
BENCHMARK.json (with its bound and direction) and on every workload
metric the run printed (with the largest bound of BENCHMARK.json, the one
its timings carry).  For each pair the tool prints both medians, both
quartile ranges and a verdict:

  better      every change run beats every base run, or the change's
              median wins by more than the base's own quartile spread
  worse       the change's median loses by more than the metric's bound
  unchanged   within the bound
  unresolved  the run-to-run spread is wider than the bound

It exits 1 when any verdict is "worse", 0 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    p = pathlib.Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    records = []
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return [r for r in records if r.get("trace") == 0 and r.get("result")]


def series(records):
    """{workload: {metric: (values, better, unit)}} over untraced records."""
    out = {}
    for r in records:
        w = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            w.setdefault(name, ([], None, m["unit"]))[0].append(m["value"])
        for name, m in (r.get("detail") or {}).items():
            w.setdefault(name, ([], m["better"], m["unit"]))[0].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    """Interquartile range as a share of the median."""
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    """Verdict for one metric; `better` is "higher" or "lower"."""
    mb, mc = statistics.median(base), statistics.median(change)
    if mb == 0:  # e.g. error_rate: any change from zero is a verdict
        if mc == 0:
            return "unchanged"
        return "worse" if (mc > 0) == (better == "lower") else "better"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mc - mb) / abs(mb)  # > 0 means the change is better
    if min(sign * x for x in change) > max(sign * x for x in base):
        return "better"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(base):
        return "better"
    return "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    detail_bound = max(m["bound"] for m in bench["end_to_end"])
    base, change = series(load(args.base)), series(load(args.change))

    regressions = 0
    for workload in sorted(set(base) & set(change)):
        print(f"== {workload}")
        for name in sorted(set(base[workload]) & set(change[workload])):
            b, better, unit = base[workload][name]
            c = change[workload][name][0]
            bound = detail_bound
            if name in e2e:
                better, bound = e2e[name]["better"], e2e[name]["bound"]
            if better not in ("higher", "lower"):
                continue
            v = verdict(b, c, better, bound)
            regressions += v == "worse"
            mb, mc = statistics.median(b), statistics.median(c)
            delta = (mc - mb) / abs(mb) if mb else 0.0
            bq, cq = quartiles(b), quartiles(c)
            print(f"  {name:26} base {mb:11.5g} [{bq[0]:.5g}, {bq[1]:.5g}]  "
                  f"change {mc:11.5g} [{cq[0]:.5g}, {cq[1]:.5g}]  {delta:+7.2%}  "
                  f"{v}  ({unit}, {better} is better, bound {bound:g})")
    missing = sorted(set(base) ^ set(change))
    if missing:
        print(f"workloads in only one result set: {', '.join(missing)}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
