"""Run the benchmark on two checkouts in alternating pairs and compare.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --workload bracket \
        --seed 0 --pairs 10 --out BENCH_<tag>.json

PARENT and CHANGE are source checkouts, each with its own
``bench/run.py``. Pair i runs ``bench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one after the other: the
parent first in even pairs, the change first in odd ones. ``--seconds``
defaults to the ``run_seconds`` of the change's ``BENCHMARK.json``, so
both sides run at the benchmark's own length.

The result goes into OUT under the key ``<workload>/seed<seed>``; other
keys already in OUT are kept, so one file collects several workloads
and seeds. For each end-to-end metric of ``BENCHMARK.json`` it holds
each side's median and quartiles over the runs, the winner of every
pair (ties count for neither), the change's relative difference of
medians, and the two tests a comparison needs:

* ``gain``: every pair completed, the change failed no more answers
  than the parent, it won at least 9 of every 10 pairs run, and the
  medians differ by more than the distance between the parent's
  quartiles;
* ``within_bound``: the change's median is no worse than the parent's
  by more than the metric's bound. ``unresolved`` is true when the
  parent's quartile distance exceeds the bound, so that no verdict
  holds, unless every run of the change beats every run of the parent.

Every run's JSON line (or its exit status and the end of its standard
error) is kept under ``runs``, and the hardware and versions the
change's last run recorded under ``environment``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last JSON line, or
    its exit status and the end of its standard error."""
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {"returncode": proc.returncode,
              "wall_s": round(perf_counter() - start, 3)}
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-2000:]
    return record


def _environment(checkout: str, workload: str, seed: int):
    """The hardware and versions that the last run in ``checkout``
    recorded, or None when it wrote no result."""
    path = os.path.join(checkout, "bench", "out",
                        f"{workload}-seed{seed}-trace0.results.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)["environment"]


def compare(runs: list[dict], metrics: list[dict]) -> dict:
    """The per-metric summary of ``runs``, a list of {"first", "parent",
    "change"} pairs, for the end-to-end ``metrics`` of BENCHMARK.json."""
    ok = [r for r in runs
          if "result" in r["parent"] and "result" in r["change"]]
    summary = {"pairs": len(runs), "complete_pairs": len(ok)}
    if not ok:
        return summary
    failed = {side: sum(r[side]["result"]["failed"] for r in ok)
              for side in ("parent", "change")}
    attempted = {side: sum(r[side]["result"]["attempted"] for r in ok)
                 for side in ("parent", "change")}
    # a gain counts only when no run crashed and no more answers failed
    sound = len(ok) == len(runs) and failed["change"] <= failed["parent"]
    for m in metrics:
        name, sign = m["name"], 1.0 if m["better"] == "lower" else -1.0
        parent = [r["parent"]["result"]["metrics"][name]["value"] for r in ok]
        change = [r["change"]["result"]["metrics"][name]["value"] for r in ok]
        winners = ["change" if sign * (c - p) < 0 else
                   "parent" if sign * (c - p) > 0 else "tie"
                   for p, c in zip(parent, change)]
        sp, sc = _quartiles(parent), _quartiles(change)
        spread = sp["q3"] - sp["q1"]
        diff = sc["median"] - sp["median"]
        wins = winners.count("change")
        separated = (max(change) < min(parent) if sign > 0
                     else min(change) > max(parent))
        summary[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": sp, "change": sc, "winners": winners,
            "change_wins": wins, "parent_wins": winners.count("parent"),
            "relative_change": diff / sp["median"] if sp["median"] else None,
            "parent_iqr": spread,
            "gain": sound and wins >= 0.9 * len(runs) and sign * diff < 0
            and abs(diff) > spread,
            "within_bound": sign * diff <= m["bound"] * abs(sp["median"]),
            "unresolved": spread > m["bound"] * abs(sp["median"])
            and not separated,
        }
    summary["failed"] = failed
    summary["attempted"] = attempted
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side] = run_once(checkout, args.workload, args.seed, seconds)
            result = pair[side].get("result")
            status = ({k: v["value"] for k, v in result["metrics"].items()}
                      if result else f"exit {pair[side]['returncode']}")
            print(f"pair {i} {side}: {status}", flush=True)
        runs.append(pair)

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as handle:
            doc = json.load(handle)
    doc[f"{args.workload}/seed{args.seed}"] = {
        "workload": args.workload, "seed": args.seed, "seconds": seconds,
        "environment": _environment(args.change, args.workload, args.seed),
        "summary": compare(runs, spec["end_to_end"]),
        "runs": runs,
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0 if all("result" in r[s] for r in runs
                    for s in ("parent", "change")) else 1


if __name__ == "__main__":
    sys.exit(main())
