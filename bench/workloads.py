"""Answers, warm-up and correctness checks of each workload.

An answer is one public call into ``evocontrol`` that returns a result a
user would act on. ``call`` is the timed part and resolves every
function through its module at call time, so the tracer's wrappers see
it. ``digest`` runs outside the timing: it turns the result into exact
values (compared bit for bit across passes and runs) and deterministic
counters. ``check`` gates each value with the acceptance battery's
tolerances; the context it needs is computed after the timed passes.

Imported only by the worker, after ``import evocontrol``.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from typing import Any, Callable, NamedTuple

from evocontrol import fd, heat, kaplan, picard, sobolev

# frozen values of acceptance criterion 01
PAPER_T_G = {1.6: 1.104, 2.0: 0.7730, 4.0: 0.3138, 10.0: 0.1112, 20.0: 0.05340}
PAPER_T_K = {1.6: 5.935, 2.0: 1.598, 4.0: 0.5090, 10.0: 0.1738, 20.0: 0.08315}


class Answer(NamedTuple):
    aid: str
    call: Callable[[], Any]
    digest: Callable[[Any], tuple[dict, Counter]]


def num(x):
    """Exact JSON-able float; infinities as strings, None kept."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else str(x)


def _scalar(value) -> tuple[dict, Counter]:
    return {"value": num(value)}, Counter()


def _file_digest(paths) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in paths:
        with open(path, "rb") as handle:
            data = handle.read()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


# ---------------------------------------------------------------------------
# bracket


def _bracket_call(A: float, stem: str):
    (row,) = heat.table_rows([A])
    heat.write_json(heat.scenario_record(row), stem + ".json")
    heat.write_scenario_csv(row, stem + ".csv")
    return row, stem


def _bracket_digest(result) -> tuple[dict, Counter]:
    row, stem = result
    sha, size = _file_digest([stem + ".json", stem + ".csv"])
    value = {
        "A": row.scenario.A, "outcome": row.outcome_kind,
        "t_G": num(row.t_g), "t_K": num(row.t_k), "files_sha256": sha,
    }
    return value, Counter({f"outcome.{row.outcome_kind}": 1,
                           "serialize.bytes": size})


def bracket_answers(inp: dict, scratch: str) -> list[Answer]:
    answers = []
    for A in inp["paper_amplitudes"] + inp["seeded_amplitudes"]:
        stem = os.path.join(scratch, f"scenario-{A!r}")
        answers.append(Answer(
            f"bracket A={A!r}",
            lambda A=A, stem=stem: _bracket_call(A, stem),
            _bracket_digest,
        ))
    answers.append(Answer(
        "critical_amplitude", lambda: heat.critical_amplitude(), _scalar
    ))
    answers.append(Answer(
        "rescaled_limit", lambda: heat.rescaled_limit().escape_time, _scalar
    ))
    for q0, p in inp["kaplan_cases"]:
        answers.append(Answer(
            f"kaplan_ode q0={q0!r} p={p}",
            lambda q0=q0, p=p: kaplan.comparison_blowup_time(q0, p), _scalar,
        ))
        answers.append(Answer(
            f"kaplan_quad q0={q0!r} p={p}",
            lambda q0=q0, p=p: kaplan.kaplan_time_by_quadrature(q0, p),
            _scalar,
        ))
    return answers


def bracket_context(inp: dict) -> dict:
    return {"kaplan_closed": {
        f"q0={q0!r} p={p}": kaplan.kaplan_time(q0, p)
        for q0, p in inp["kaplan_cases"]
    }}


def _as_float(x) -> float:
    return float(x) if x is not None else math.nan


def bracket_check(aid: str, value: dict, values: dict, ctx: dict,
                  inp: dict) -> str | None:
    if aid.startswith("bracket "):
        A, t_g, t_k = value["A"], _as_float(value["t_G"]), value["t_K"]
        if t_k is not None and not t_g <= t_k:
            return f"t_G={t_g} above t_K={t_k}"
        if A in PAPER_T_G:
            if abs(t_g - PAPER_T_G[A]) > 5e-3 * PAPER_T_G[A]:
                return f"t_G={t_g} off the paper value {PAPER_T_G[A]}"
            if t_k is None or abs(t_k - PAPER_T_K[A]) > 1e-3 * PAPER_T_K[A]:
                return f"t_K={t_k} off the paper value {PAPER_T_K[A]}"
        else:
            crit = values["critical_amplitude"]["value"]
            if math.isfinite(t_g) != (A > crit):
                return f"t_G={t_g} finite/infinite on the wrong side of {crit}"
        return None
    if aid == "critical_amplitude":
        v = value["value"]
        return None if abs(v - 1.056) <= 0.002 else f"critical amplitude {v}"
    if aid == "rescaled_limit":
        v = value["value"]
        return None if abs(v - 1.026) <= 0.002 else f"limit escape time {v}"
    kind, case = aid.split(" ", 1)
    gap = abs(value["value"] - ctx["kaplan_closed"][case])
    limit = 1e-8 if kind == "kaplan_quad" else 1e-4
    return None if gap <= limit else f"gap {gap:.3e} to the closed form"


def bracket_warmup() -> None:
    heat.table_rows([2.0])


# ---------------------------------------------------------------------------
# reference


def _fd_digest(est) -> tuple[dict, Counter]:
    runs = (est.coarse, est.fine)
    value = {
        "A": est.coarse.config.A, "estimate": num(est.value),
        "coarse": num(est.coarse.estimate), "fine": num(est.fine.estimate),
    }
    counters = Counter({
        "fd.coarse_steps": len(est.coarse.times) - 1,
        "fd.fine_steps": len(est.fine.times) - 1,
        "fd.grid_points": sum(r.config.N for r in runs),
    })
    for r in runs:
        counters[f"outcome.{r.kind}"] += 1
    return value, counters


def reference_answers(inp: dict, scratch: str) -> list[Answer]:
    answers = [
        Answer(f"fd A={A!r}",
               lambda A=A: fd.fd_blowup_time(fd.FdConfig(A=A)), _fd_digest)
        for A in inp["fd_amplitudes"] + inp["seeded_amplitudes"]
    ]
    A_large, tau = inp["limit_profile"]
    answers.append(Answer(
        f"limit_profile A={A_large!r} tau={tau!r}",
        lambda: fd.limit_profile_check(A_large, tau), _scalar,
    ))
    return answers


def reference_context(inp: dict) -> dict:
    amplitudes = inp["fd_amplitudes"] + inp["seeded_amplitudes"]
    rows = heat.table_rows(amplitudes)
    return {"brackets": {A: (r.t_g, r.t_k) for A, r in zip(amplitudes, rows)}}


def reference_check(aid: str, value: dict, values: dict, ctx: dict,
                    inp: dict) -> str | None:
    if aid.startswith("limit_profile"):
        # same tolerance as the fd module test of the limit profile
        dev = value["value"]
        return None if dev <= 0.05 else f"profile deviation {dev}"
    A, est = value["A"], _as_float(value["estimate"])
    t_g, t_k = ctx["brackets"][A]
    if not 0.98 * t_g <= est <= 1.02 * t_k:
        return f"estimate {est} outside [0.98*{t_g}, 1.02*{t_k}]"
    if A == 100.0 and abs(100.0 * est - 1.253) > 0.19:
        return f"rescaled estimate {100.0 * est}"
    return None


def reference_warmup() -> None:
    fd.fd_blowup_time(fd.FdConfig(A=100.0))


# ---------------------------------------------------------------------------
# verify


def _picard_digest(report) -> tuple[dict, Counter]:
    n = report.grid_n + 1
    value = {
        "passed": report.passed, "worst_margin": num(min(report.tube_margins)),
        "sigma": num(report.sigma), "rho": num(report.rho),
        "successive": [num(d) for d in report.successive_diffs],
    }
    return value, Counter({
        "picard.grid_points": n,
        "picard.modes": len(report.indices),
        "quadrature.prefix_matrix_bytes": n * n * 8,
    })


def _sobolev_digest(report) -> tuple[dict, Counter]:
    algebra = report["algebra"]
    value = {
        "lambda_star": num(report["lambda_star"]),
        "ratio_star": num(report["ratio_star"]),
        "violations": algebra["violations"],
        "max_ratio": num(algebra["max_ratio"]),
    }
    return value, Counter({"sobolev.trials": algebra["trials"]})


def verify_answers(inp: dict, scratch: str) -> list[Answer]:
    cases = [inp["picard_paper"]] + inp["picard_seeded"]
    answers = [
        Answer(f"picard A={A!r} t1={t1!r}",
               lambda A=A, t1=t1: picard.verify_heat_scenario(
                   A=A, t1=t1, k_max=10, grid_n=2048),
               _picard_digest)
        for A, t1 in cases
    ]
    seed, trials = inp["sobolev_seed"], inp["sobolev_trials"]
    answers.append(Answer(
        f"sobolev seed={seed}",
        lambda: sobolev.sobolev_report(seed, trials=trials), _sobolev_digest,
    ))
    for n in inp["sn_orders"]:
        answers.append(Answer(
            f"sn_iteration n={n}",
            lambda n=n: kaplan.sn_iteration(2, 2, n, 0.5), _scalar,
        ))
    return answers


def verify_context(inp: dict) -> dict:
    return {"comparison": kaplan.comparison_solution(2, 2, 0.5)}


def verify_check(aid: str, value: dict, values: dict, ctx: dict,
                 inp: dict) -> str | None:
    if aid.startswith("picard"):
        margin = value["worst_margin"]
        if not (value["passed"] and margin >= -1e-8):
            return f"verification failed, worst margin {margin}"
        return None
    if aid.startswith("sobolev"):
        lam, ratio = value["lambda_star"], value["ratio_star"]
        if value["violations"] or not 1.5 <= lam <= 1.6 or not ratio > 0.811:
            return (f"{value['violations']} violations, "
                    f"lambda*={lam}, ratio*={ratio}")
        return None
    orders = inp["sn_orders"]
    n = int(aid.split("=")[1])
    s = value["value"]
    if not s <= ctx["comparison"]:
        return f"S_{n}={s} above the comparison solution {ctx['comparison']}"
    k = orders.index(n)
    if k:
        prev = values.get(f"sn_iteration n={orders[k - 1]}")
        if prev is None or not prev["value"] <= s:
            return f"S_{n}={s} below the previous iterate"
    return None


def verify_warmup() -> None:
    kaplan.sn_iteration(2, 2, 1, 0.5)


WORKLOADS = {
    "bracket": (bracket_answers, bracket_context, bracket_check,
                bracket_warmup),
    "reference": (reference_answers, reference_context, reference_check,
                  reference_warmup),
    "verify": (verify_answers, verify_context, verify_check, verify_warmup),
}
