"""Benchmark of evocontrol's answers: certified brackets, reference
estimates and a-posteriori checks.

    python3 bench/run.py --workload bracket --seed 0 --seconds 30 --trace 0

Run it in a source checkout; the package is imported from
the checkout's ``src/`` and nowhere else. The command generates the
workload's inputs from ``--seed``, measures set-up in several fresh
processes, runs the timed passes in one more fresh process, checks every
answer, prints every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from traced passes, which
alternate with untraced ones in the same process, and its JSON line
carries the per-layer metrics ``BENCHMARK.json`` lists. Inputs, environment,
all metrics and the deterministic counters are written to ``bench/out/``.
A counter or answer that differs from an earlier run of the same code
and seed means the benchmark is broken: the command then exits with
status 3 and prints no result. See NOTES.md for the design.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 4  # set-up-only processes, plus the timed process itself
RUN_TIMEOUT_S = 170.0

# Per workload: the fixed tail percentile and the fewest passes that
# leave at least 10 answers beyond it (answers per pass x passes x
# (1 - q) >= 10), so the metric means the same thing in every run.
TAIL = {"bracket": (90, 3), "reference": (84, 10), "verify": (75, 6)}


# Every per-layer metric printed with --trace 1. BENCHMARK.json lists the
# counts and the timings that no workload reads as 0; a layer's timing on
# a workload that never enters the layer is 0 in every run.
LAYER_METRICS = {
    **dict.fromkeys((
        "ode.integrate.calls", "ode.accepted_steps", "ode.rhs_calls",
        "ode.outcome.blow_up", "ode.outcome.reached_horizon",
        "ode.outcome.domain_exit", "ode.interpolate.calls", "heat.rhs.calls",
        "heat.critical_amplitude.integrations", "galerkin.build_model.calls",
        "kaplan.comparison_blowup_time.calls", "fd.fd_single_run.calls",
        "fd.rhs.calls", "fd.grid_points", "quadrature.prefix_weights.calls",
        "picard.volterra_apply.calls", "picard.mode_convolutions",
        "sobolev.trials", "trace.spans"), "count"),
    **dict.fromkeys((
        "ode.integrate.self_s", "ode.interpolate.s", "heat.rhs.s",
        "heat.run_scenario.self_s", "heat.serialize.s",
        "galerkin.build_model.s", "galerkin.value_many.s",
        "kaplan.comparison_blowup_time.s", "kaplan.rhs.s",
        "kaplan.quadrature.s", "kaplan.sn_iteration.s", "fd.fd_single_run.s",
        "fd.rhs.s", "quadrature.prefix_weights.s", "picard.volterra_apply.s",
        "picard.iterate_and_check.self_s", "sobolev.algebra_property_test.s",
        "sobolev.best_ratio.s", "ode.self_s", "heat.self_s", "galerkin.self_s",
        "kaplan.self_s", "fd.self_s", "quadrature.self_s", "picard.self_s",
        "sobolev.self_s", "setup.import_s", "setup.warmup_s",
        "trace.overhead_s"), "s"),
    "ode.rhs_per_accepted": "ratio", "ode.self_us_per_step": "us",
    "ode.history_mb": "MB", "heat.serialize.bytes": "bytes",
    "fd.steps_ratio_fine_coarse": "ratio", "quadrature.prefix_weights.mb": "MB",
    "sobolev.us_per_trial": "us",
}


class BrokenBenchmark(Exception):
    """The benchmark cannot vouch for its own numbers."""


def _parse(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _percentile(values, q: int) -> float:
    """Linear-interpolation percentile (numpy's default), q in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _quartiles(values) -> dict:
    return {"median": statistics.median(values), "q1": _percentile(values, 25),
            "q3": _percentile(values, 75), "n": len(values)}


def _code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "evocontrol", "*.py"))
                       + glob.glob(os.path.join(HERE, "*.py"))):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()[:16]


def _spawn(workload: str, extra: list[str], deadline: float):
    """Start a worker; return (seconds until it was ready, its ready
    record, the process). The caller waits for the process."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, "--root", ROOT, "--workload", workload,
         *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - start
        if not line.startswith("ready "):
            raise BrokenBenchmark(f"worker did not get ready: {line!r}")
        return ready_s, json.loads(line[len("ready "):]), proc
    except BaseException:
        _stop(proc, deadline)
        raise


def _stop(proc, deadline: float) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait(timeout=max(1.0, deadline - perf_counter()))


def _wait(proc, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        _stop(proc, deadline)
        raise BrokenBenchmark("worker exceeded the time limit")
    finally:
        if proc.poll() is None:
            _stop(proc, deadline)
    if proc.returncode != 0:
        raise BrokenBenchmark(f"worker exited with status {proc.returncode}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}")
    inp = inputs.generate(workload, seed)
    with open(stem + ".inputs.json", "w") as handle:
        json.dump(inp, handle, indent=1)

    setups = []
    for _ in range(SETUP_PROBES):
        ready_s, record, proc = _spawn(workload, ["--setup-only"], deadline)
        _wait(proc, deadline)
        setups.append({"ready_s": ready_s, **record})
    q, min_passes = TAIL[workload]
    ready_s, record, proc = _spawn(workload, [
        "--inputs", stem + ".inputs.json", "--seconds", str(seconds),
        "--min-passes", str(min_passes), "--trace", str(trace),
        "--result", stem + ".worker.json", "--spans", stem + ".spans.jsonl",
    ], deadline)
    _wait(proc, deadline)
    setups.append({"ready_s": ready_s, **record})
    with open(stem + ".worker.json") as handle:
        doc = json.load(handle)
    return {"inputs": inp, "setups": setups, "worker": doc, "tail_q": q}


def end_to_end(run: dict) -> tuple[dict, dict]:
    doc = run["worker"]
    plain = [p for p in doc["passes"] if not p["traced"]]
    lat = [x for p in plain for x in p["latencies"] if x is not None]
    q = run["tail_q"]
    beyond = sum(1 for x in lat if x > _percentile(lat, q))
    metrics = {
        "pass_s": statistics.median(p["pass_s"] for p in plain),
        "answer_p50_s": statistics.median(lat),
        "answer_tail_s": _percentile(lat, q),
        "setup_s": statistics.median(s["ready_s"] for s in run["setups"]),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    detail = {
        "pass_s": _quartiles([p["pass_s"] for p in plain]),
        "answer_latency": {**_quartiles(lat), "tail_percentile": q,
                           "samples_beyond_tail": beyond},
        "setup_s": _quartiles([s["ready_s"] for s in run["setups"]]),
        "passes": len(plain),
    }
    return metrics, detail


def per_layer(run: dict) -> dict:
    """Medians over the traced passes; counters repeat exactly, so the
    first traced pass gives them. A layer the workload never enters
    reads 0."""
    doc = run["worker"]
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    t = {key: statistics.median(p["layer_times"].get(key, 0.0) for p in traced)
         for key in set().union(*(p["layer_times"] for p in traced))}
    c = traced[0]["layer_counters"]
    a = traced[0]["counters"]

    def ratio(x, y):
        return x / y if y else 0.0

    steps = c.get("ode.accepted_steps", 0)
    m = {**c, **t}
    m.update({
        "ode.rhs_per_accepted": ratio(c.get("ode.rhs_calls", 0), steps),
        "ode.self_us_per_step": 1e6 * ratio(t.get("ode.integrate.self_s", 0.0),
                                            steps),
        "ode.history_mb": c.get("ode.history_bytes_max", 0) / 1e6,
        "heat.serialize.bytes": a.get("serialize.bytes", 0),
        "fd.steps_ratio_fine_coarse": ratio(a.get("fd.fine_steps", 0),
                                            a.get("fd.coarse_steps", 0)),
        "quadrature.prefix_weights.mb":
            c.get("quadrature.prefix_bytes_max", 0) / 1e6,
        "sobolev.us_per_trial": 1e6 * ratio(
            t.get("sobolev.algebra_property_test.s", 0.0),
            c.get("sobolev.trials", 0)),
        "setup.import_s": statistics.median(s["import_s"] for s in run["setups"]),
        "setup.warmup_s": statistics.median(s["warmup_s"] for s in run["setups"]),
        "trace.overhead_s": statistics.median(p["pass_s"] for p in traced)
        - statistics.median(p["pass_s"] for p in plain),
    })
    return {name: m.get(name, 0) for name in LAYER_METRICS}


def determinism(run: dict) -> dict:
    """Counters and answers must repeat exactly: across the passes of
    this run, and against an earlier run of the same code and seed."""
    doc = run["worker"]
    passes = doc["passes"]
    record = {
        "counters": passes[0]["counters"],
        "answers_sha256": hashlib.sha256(json.dumps(
            doc["values"][0], sort_keys=True).encode()).hexdigest(),
    }
    for k, p in enumerate(passes[1:], 1):
        if p["counters"] != passes[0]["counters"]:
            raise BrokenBenchmark(f"pass {k} counters differ from pass 0")
        if doc["values"][k] != doc["values"][0]:
            what = "traced" if p["traced"] else "untraced"
            raise BrokenBenchmark(f"{what} pass {k} answers differ from pass 0")
    traced = [p for p in passes if p["traced"]]
    if traced:
        record["layer_counters"] = traced[0]["layer_counters"]
        for p in traced[1:]:
            if p["layer_counters"] != traced[0]["layer_counters"]:
                raise BrokenBenchmark("traced passes counted different work")
    # threaded BLAS sums in another order, so its thread count is part
    # of what must match
    path = os.path.join(OUT, "counters", "{}-seed{}-{}-blas{}.json".format(
        doc["workload"], run["inputs"]["seed"], _code_hash(),
        doc["environment"]["blas"]["threads"]))
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        for key in set(earlier) & set(record):
            if earlier[key] != record[key]:
                raise BrokenBenchmark(f"{key} differ from {path}")
        record = {**earlier, **record}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return record


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {**LAYER_METRICS, **{m["name"]: m["unit"] for m in spec["end_to_end"]}}
    for m in spec["per_layer"]:
        if LAYER_METRICS.get(m["name"]) != m["unit"]:
            print(f"BENCHMARK.json: unknown per-layer metric {m}", file=sys.stderr)
            return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "evocontrol", "__init__.py")):
        print(f"no evocontrol sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
        record = determinism(run)
        env = run["worker"]["environment"]
        if not (env["blas"]["threads"] or 1) <= env["nproc"]:
            raise BrokenBenchmark(f"BLAS runs {env['blas']['threads']} threads "
                                  f"on {env['nproc']} CPUs")
    except BrokenBenchmark as exc:
        print(f"benchmark broken: {exc}", file=sys.stderr)
        return 3
    doc = run["worker"]
    attempted = sum(len(p["latencies"]) for p in doc["passes"])
    failed = len(doc["failures"])
    e2e, detail = end_to_end(run)
    layers = per_layer(run) if args.trace else None
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".results.json", "w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "end_to_end": e2e, "end_to_end_detail": detail,
            "per_layer": layers, "counters": record,
            "failures": doc["failures"][:20],
            "environment": doc["environment"], "inputs": run["inputs"],
        }, handle, indent=1)

    print(f"environment: {env['nproc']} CPUs ({env['cpu']}), Python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']} with "
          f"{env['blas']['threads']} threads, 1 process")
    print(f"{args.workload} seed {args.seed}: {detail['passes']} untraced "
          f"passes, {attempted} answers attempted, {failed} failed")
    if args.trace:
        traced = sum(p["traced"] for p in doc["passes"])
        print(f"{traced} traced passes: answers and counters bit-identical to "
              f"the {detail['passes']} untraced passes; tracing overhead "
              f"{layers['trace.overhead_s']:.4g} s per pass")
    else:
        lat = detail["answer_latency"]
        print(f"answer_tail_s is the p{lat['tail_percentile']:g} of {lat['n']} "
              f"answers, {lat['samples_beyond_tail']} beyond it")
    print("deterministic counters: " + json.dumps(record["counters"]))
    if args.trace:
        print("traced counters: " + json.dumps(record["layer_counters"]))
    for f in doc["failures"][:5]:
        print(f"FAILED pass {f['pass']} {f['answer']}: {f['error']}")
    for name, value in (layers or e2e).items():
        print(f"{name} = {value:.6g} {units[name]}")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: (layers or e2e)[m["name"]] for m in listed}
    if not args.trace:
        print(f"failed_frac = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} answers attempted)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
