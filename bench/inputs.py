"""Seeded inputs of the three workloads.

The paper's fixed inputs are always present; ``--seed`` only draws the
extra ones. Draws are stratified or paired so that the amount of work in
one pass, and the position of the median and tail answers, barely depend
on the seed (see NOTES.md). Pure Python: the parent process generates
the inputs without importing numpy or the package under test.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("bracket", "reference", "verify")

PAPER_AMPLITUDES = (1.6, 2.0, 4.0, 10.0, 20.0)
CRITICAL_NOMINAL = 1.056  # drawn amplitudes keep 0.01 away from it
KAPLAN_CASES = tuple(
    (q0, p) for q0 in (1.1, 1.2535, 2.0, 5.0, 50.0) for p in (2, 3, 4)
)
FD_AMPLITUDES = (10.0, 20.0, 100.0)
PICARD_PAPER = (1.0, 2.0)  # (A, t1) of acceptance criterion 08
SN_ORDERS = (1, 5, 10)
SOBOLEV_TRIALS = 10_000


def _bracket(rng: random.Random) -> dict:
    # one log-uniform draw in each of 8 equal strata of [0.5, 40]
    lo, hi, n = math.log(0.5), math.log(40.0), 8
    seeded = []
    for i in range(n):
        while True:
            A = math.exp(lo + (i + rng.random()) * (hi - lo) / n)
            if abs(A - CRITICAL_NOMINAL) >= 0.01:
                break
        seeded.append(A)
    return {
        "paper_amplitudes": list(PAPER_AMPLITUDES),
        "seeded_amplitudes": seeded,
        "kaplan_cases": [list(c) for c in KAPLAN_CASES],
    }


def _reference(rng: random.Random) -> dict:
    # An explicit run costs about const/A accepted steps. One draw sits
    # beside A=10 and one beside A=20, so a pass holds two answers of each
    # cost and the median and tail answers fall inside a pair, not between
    # two costs. The pair 1/A_near + 1/A_mid = 0.15 keeps the work of a
    # pass fixed: A_near in [10, 10.53], A_mid in [18.2, 20].
    u = rng.random()
    return {
        "fd_amplitudes": list(FD_AMPLITUDES),
        "seeded_amplitudes": [1.0 / (0.1 - 0.005 * u), 1.0 / (0.05 + 0.005 * u)],
        "limit_profile": [200.0, 0.5],
    }


def _verify(rng: random.Random, seed: int) -> dict:
    # one (A, t1) draw in each half of A in [0.5, 1]; t1 in [2, 4]
    seeded = [
        [0.5 + 0.25 * (i + rng.random()), 2.0 + 2.0 * rng.random()]
        for i in range(2)
    ]
    return {
        "picard_paper": list(PICARD_PAPER),
        "picard_seeded": seeded,
        "sobolev_seed": seed,
        "sobolev_trials": SOBOLEV_TRIALS,
        "sn_orders": list(SN_ORDERS),
    }


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload; the same (workload, seed) gives the same
    inputs on every platform (string seeds are hashed with SHA-512)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "bracket":
        drawn = _bracket(rng)
    elif workload == "reference":
        drawn = _reference(rng)
    elif workload == "verify":
        drawn = _verify(rng, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, **drawn}
