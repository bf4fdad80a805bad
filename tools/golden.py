"""Write the outputs of a fixed set of CLI runs into one directory.

Usage: python3 tools/golden.py OUTDIR

Each subcommand runs in a fresh interpreter against the ``src/`` tree
of the checkout this script lives in, inside its own subdirectory of
OUTDIR with ``--out .``, so the files it writes and its captured
stdout/stderr name only relative paths. Running the script at two
commits and comparing with ``diff -r`` shows whether a change kept
every JSON/CSV output byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys

RUNS = {
    "table": ["table"],
    # the table at p = 3, where the growth ell sums three terms
    "table_p3": ["table", "--p", "3"],
    # the only coupled (a, sigma) run at p = 4, where ell sums four terms
    "table_p4": ["table", "--p", "4", "--A", "4", "--A", "10"],
    "scenario": ["scenario", "--A", "4"],
    # a low threshold: sigma crosses its level (1 + 1000)^(-1) far from
    # 0, inside one of the run's long steps
    "scenario_threshold": ["scenario", "--A", "4", "--blowup-threshold",
                           "1000"],
    # p = 3: the escape crossing of sigma = (1 + R)^(-2), located where
    # sigma, past 0, is continued by its odd real root
    "scenario_p3_threshold": ["scenario", "--p", "3", "--A", "4",
                              "--blowup-threshold", "1000"],
    # a threshold below the coordinates' peak: the run ends as the
    # engine's max-norm escape of the coupled (a, sigma) state
    "scenario_coord_threshold": ["scenario", "--A", "4",
                                 "--blowup-threshold", "5"],
    # twelve modes: where the node kernel and a Gram form over degree-p
    # monomials differ the most
    "scenario_many": ["scenario", "--A", "10", "--modes",
                      ",".join(str(k) for k in range(1, 24, 2))],
    "critical": ["critical"],
    # the threshold at p != 2, where both certificates change level
    "critical_p3": ["critical", "--p", "3"],
    "limit": ["limit"],
    "kaplan": ["kaplan", "--A", "4", "--A", "10"],
    # the Kaplan quadrature and comparison ODE at p != 2
    "kaplan_p3": ["kaplan", "--p", "3", "--A", "4", "--A", "10"],
    # p = 4: the comparison runs cross sigma = S^(-3) = 0 within 1-2
    # steps, where t_K is the smallest
    "kaplan_p4": ["kaplan", "--p", "4", "--A", "4", "--A", "10"],
    "fd": ["fd", "--A", "100", "--profile-time", "0.5"],
    # a norms CSV from a long fine run (1,123 steps on 512 points)
    "fd_A20": ["fd", "--A", "20"],
    # a threshold escape at p != 2
    "fd_p3": ["fd", "--p", "3", "--A", "20"],
    "picard": ["picard", "--A", "1", "--horizon", "2"],
    "wave": ["wave"],
    "wave_p3": ["wave", "--p", "3"],
    # non-default mode sets through every entry point that looks up a model
    "critical_modes": ["critical", "--modes", "1,3,5"],
    "limit_modes": ["limit", "--modes", "1,3,5,7,9"],
    "table_modes": ["table", "--A", "2", "--A", "10", "--modes", "1,3,5"],
    "picard_modes": ["picard", "--A", "1", "--horizon", "1", "--modes",
                     "1,3,5"],
    "sobolev": ["sobolev", "--trials", "2000", "--seed", "0"],
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/golden.py OUTDIR", file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    env = dict(os.environ, PYTHONPATH=SRC)
    failed = []
    for name, args in RUNS.items():
        where = os.path.join(root, name)
        os.makedirs(where, exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-m", "evocontrol.cli", *args, "--out", "."],
            cwd=where, env=env, capture_output=True, text=True,
        )
        for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            with open(os.path.join(where, stream + ".txt"), "w") as fh:
                fh.write(text)
        with open(os.path.join(where, "exit_code.txt"), "w") as fh:
            fh.write(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")
        if proc.returncode != 0:
            failed.append(name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
