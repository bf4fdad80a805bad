"""One fresh benchmark process: set up, time passes, trace, check.

Started by ``run.py``; not meant to be run by hand. It prints
``ready {...}`` once the package is imported and one untimed warm-up
answer has run (that moment ends the set-up time the parent measures).
With ``--setup-only`` it stops there. Otherwise it runs whole passes
over the workload's answers, one caller, closed loop, until
``--seconds`` have passed and at least ``--min-passes`` passes are done.
With ``--trace 1`` every second pass is traced. After the timed passes
it checks every answer and writes one JSON document to ``--result``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import traceback
from collections import Counter
from time import perf_counter


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _blas_record() -> dict:
    """BLAS library and its thread count, read from the loaded library."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "blas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads",
                    "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
    return {"name": blas.get("name"), "version": blas.get("version"),
            "libraries": [os.path.basename(p) for p in libs],
            "threads": threads}


def environment() -> dict:
    import numpy
    import scipy

    model = None
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_record(),
        "processes": 1,
    }


def run_pass(answers, tracer=None) -> dict:
    """Every answer once, in order; only the public calls are timed."""
    latencies, results, errors = [], [], {}
    start = perf_counter()
    for a in answers:
        if tracer is not None:
            tracer.answer = a.aid
        t0 = perf_counter()
        try:
            raw = a.call()
        except Exception:  # an answer that raises is counted as failed
            latencies.append(None)
            results.append(None)
            errors[a.aid] = traceback.format_exc(limit=3)
            continue
        latencies.append(perf_counter() - t0)
        results.append(raw)
    pass_s = perf_counter() - start
    values, counters = {}, Counter()
    for a, raw in zip(answers, results):
        if raw is None:
            continue
        value, c = a.digest(raw)
        values[a.aid] = value
        counters.update(c)
    return {"pass_s": pass_s, "traced": tracer is not None,
            "latencies": latencies, "values": values,
            "counters": dict(sorted(counters.items())), "errors": errors}


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

    t0 = perf_counter()
    import evocontrol
    import_s = perf_counter() - t0
    if not os.path.abspath(evocontrol.__file__).startswith(src + os.sep):
        print(f"evocontrol imported from {evocontrol.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads

    build, context, check, warmup = workloads.WORKLOADS[args.workload]
    t0 = perf_counter()
    warmup()
    warmup_s = perf_counter() - t0
    print("ready " + json.dumps({"import_s": import_s, "warmup_s": warmup_s}),
          flush=True)
    if args.setup_only:
        return 0

    with open(args.inputs) as handle:
        inp = json.load(handle)
    scratch = tempfile.mkdtemp(prefix="serialize-",
                               dir=os.path.dirname(args.result))
    try:
        answers = build(inp, scratch)
        passes, spans = _timed_passes(answers, args)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = _check_all(answers, passes, context, check, inp)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if spans is not None:
        with open(args.spans, "w") as handle:
            for k, pass_spans in spans:
                for i, s in enumerate(pass_spans):
                    handle.write(json.dumps({"pass": k, **s.to_dict(i)}) + "\n")
    doc = {
        "workload": args.workload,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "answer_ids": [a.aid for a in answers],
        "passes": [{k: v for k, v in p.items() if k != "values"}
                   for p in passes],
        "values": [p["values"] for p in passes],
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
        "environment": environment(),
    }
    with open(args.result, "w") as handle:
        json.dump(doc, handle)
    return 0


def _timed_passes(answers, args):
    """Untraced passes, or alternating untraced/traced ones with
    ``--trace 1``; returns the passes and the spans of each traced one."""
    tracer_mod = None
    if args.trace:
        import tracing as tracer_mod
    deadline = perf_counter() + args.seconds
    min_passes = max(args.min_passes, 4 if args.trace else 1)
    passes, spans = [], ([] if args.trace else None)
    while len(passes) < min_passes or perf_counter() < deadline:
        if args.trace and len(passes) % 2 == 1:
            tracer = tracer_mod.Tracer()
            remove = tracer_mod.install(tracer)
            try:
                p = run_pass(answers, tracer)
            finally:
                remove()
            times, counters = tracer_mod.pass_metrics(tracer.spans)
            p["layer_times"] = times
            p["layer_counters"] = dict(sorted(counters.items()))
            spans.append((len(passes), tracer.spans))
        else:
            p = run_pass(answers)
        passes.append(p)
    return passes, spans


def _check_all(answers, passes, context, check, inp) -> list[dict]:
    """Gate every answer of every pass; context work is untimed."""
    try:
        ctx = context(inp)
    except Exception:
        ctx = None
        ctx_error = traceback.format_exc(limit=3)
    failures = []
    for k, p in enumerate(passes):
        for a in answers:
            if a.aid in p["errors"]:
                failures.append({"pass": k, "answer": a.aid,
                                 "error": p["errors"][a.aid]})
                continue
            if ctx is None:
                failures.append({"pass": k, "answer": a.aid,
                                 "error": "check context failed: " + ctx_error})
                continue
            try:
                msg = check(a.aid, p["values"][a.aid], p["values"], ctx, inp)
            except Exception:
                msg = "check raised: " + traceback.format_exc(limit=3)
            if msg is not None:
                failures.append({"pass": k, "answer": a.aid, "error": msg})
    return failures


if __name__ == "__main__":
    sys.exit(main())
