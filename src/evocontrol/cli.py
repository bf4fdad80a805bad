"""Command-line front end.

Each subcommand wires one capability to files on disk: a JSON record per
run plus CSV curves for the plots. All writes are atomic and the outputs
are deterministic, so re-running a stored configuration regenerates
byte-identical files.

Exit codes: 0 success, 2 usage, 3 numeric failure (an integration,
quadrature or bracketing step failed), 4 property violation (a
verification subcommand ran fine but its checks did not pass).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import fd, heat, kaplan, picard, sobolev, wave
from .errors import EvocontrolError
from .records import SPEC_VERSION, ext_pair, fmt_float, write_csv, write_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PROPERTY = 4

_TABLE_AMPLITUDES = (1.60, 2.0, 4.0, 10.0, 20.0)


def _parse_modes(text: str) -> tuple[int, ...]:
    try:
        modes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        )
    if not modes or any(k < 1 for k in modes):
        raise argparse.ArgumentTypeError("modes must be integers >= 1")
    if len(set(modes)) != len(modes):
        raise argparse.ArgumentTypeError("modes must be distinct")
    return modes


def _add_common(sp, *, amplitudes=None, tolerances=False, modes=False,
                horizon=None):
    """``amplitudes`` is "one" or "many", the number of --A a
    subcommand accepts."""
    if amplitudes:
        sp.add_argument(
            "--A", action="append", type=float, dest="amplitudes",
            metavar="A", help="amplitude" + (
                " (repeatable)" if amplitudes == "many" else ""),
        )
    if modes:
        sp.add_argument(
            "--modes", type=_parse_modes, default=(1, 3),
            help="comma-separated sine mode list (default 1,3)",
        )
    sp.add_argument("--p", type=int, default=2, help="power (default 2)")
    if horizon is not None:
        sp.add_argument(
            "--horizon", type=float, default=horizon,
            help=f"time horizon (default {horizon})",
        )
    if tolerances:
        sp.add_argument("--rtol", type=float, default=1e-10)
        sp.add_argument("--atol", type=float, default=1e-12)
        sp.add_argument(
            "--blowup-threshold", type=float, default=1e8,
            dest="blowup_threshold",
            help="a run escapes once R or a coordinate passes it "
                 "(default 1e8)",
        )
    _add_out(sp)


def _add_out(sp):
    sp.add_argument(
        "--out", default=".", help="output directory (default current)"
    )


def _one_amplitude(args, default: float) -> float:
    """The amplitude of a single-amplitude subcommand."""
    if args.amplitudes and len(args.amplitudes) > 1:
        raise argparse.ArgumentError(
            None, f"{args.command} takes one --A, got {len(args.amplitudes)}"
        )
    return args.amplitudes[0] if args.amplitudes else default


def _outpath(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_table(args) -> int:
    amplitudes = args.amplitudes or list(_TABLE_AMPLITUDES)
    rows = heat.table_rows(
        amplitudes, p=args.p, modes=args.modes, horizon=args.horizon,
        rtol=args.rtol, atol=args.atol,
        blowup_threshold=args.blowup_threshold,
    )
    csv_path = _outpath(args, "table.csv")
    write_csv(csv_path, ["A", "t_N", "t_G", "t_K", "eta"], [
        [r.scenario.A for r in rows],
        [r.t_n for r in rows],
        [r.t_g for r in rows],
        [math.inf if r.t_k is None else r.t_k for r in rows],
        [math.inf if r.eta is None else r.eta for r in rows],
    ])
    json_path = _outpath(args, "table.json")
    write_json(
        {
            "spec_version": SPEC_VERSION,
            "kind": "table",
            "rows": [heat.scenario_record(r) for r in rows],
        },
        json_path,
    )
    print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    return EXIT_OK


def cmd_scenario(args) -> int:
    A = _one_amplitude(args, 1.0)
    scenario = heat.HeatScenario(
        A=A, p=args.p, modes=args.modes, horizon=args.horizon,
        rtol=args.rtol, atol=args.atol,
        blowup_threshold=args.blowup_threshold,
    )
    result = heat.run_scenario(scenario)
    write_json(heat.scenario_record(result), _outpath(args, "scenario.json"))
    heat.write_scenario_csv(result, _outpath(args, "scenario.csv"))
    tr = result.trajectory
    for name, header, columns in (
        ("fig_alpha.csv", ["t", "alpha"], [tr.times, tr.coordinate(1)]),
        ("fig_gamma.csv", ["t", "gamma"], [tr.times, tr.coordinate(3)]),
        ("fig_norm_R.csv", ["t", "norm_phi_ap", "R"],
         [tr.times, tr.norm_phi, tr.radius]),
        ("fig_ratio.csv", ["t", "ratio"], [tr.times, tr.ratio]),
    ):
        write_csv(_outpath(args, name), header, columns)
    print(
        f"A={A}: {result.outcome_kind}, t_G={fmt_float(result.t_g)}; "
        f"wrote scenario.json, scenario.csv and 4 figure CSVs in {args.out}"
    )
    return EXIT_OK


def cmd_critical(args) -> int:
    value = heat.critical_amplitude(
        p=args.p, modes=args.modes, rtol=args.rtol, atol=args.atol,
    )
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "critical_amplitude",
        "p": args.p,
        "modes": list(args.modes),
        "value": value,
        "bisection_tol": heat.CRITICAL_TOL,
    }
    path = _outpath(args, "critical.json")
    write_json(record, path)
    print(f"critical amplitude {value:.4f} +/- {heat.CRITICAL_TOL:.4f} "
          f"(wrote {path})")
    return EXIT_OK


def cmd_limit(args) -> int:
    result = heat.rescaled_limit(p=args.p, modes=args.modes)
    eta_inf = heat.limit_uncertainty(result.escape_time)
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "rescaled_limit",
        "p": args.p,
        "modes": list(args.modes),
        "escape_time": result.escape_time,
        "upper_constant": heat.C_K,
        "limit_uncertainty": eta_inf,
    }
    path = _outpath(args, "limit.json")
    write_json(record, path)
    print(
        f"limit escape time {result.escape_time:.4f}, "
        f"limit uncertainty {eta_inf:.4f} (wrote {path})"
    )
    return EXIT_OK


def cmd_kaplan(args) -> int:
    amplitudes = args.amplitudes or [4.0]
    entries = []
    for A in amplitudes:
        q0 = A / heat.C_K
        entry = {"A": A, "q0": q0, "p": args.p}
        if q0 > 1.0:
            closed = kaplan.kaplan_time(q0, args.p)
            entry.update(
                ext_pair("t_K", closed)
                | {
                    "t_K_quadrature": kaplan.kaplan_time_by_quadrature(
                        q0, args.p
                    ),
                    "t_K_comparison_ode": kaplan.comparison_blowup_time(
                        q0, args.p
                    ),
                }
            )
        else:
            entry.update(ext_pair("t_K", None))
        entries.append(entry)
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "kaplan",
        "entries": entries,
    }
    path = _outpath(args, "kaplan.json")
    write_json(record, path)
    print(f"wrote {path} ({len(entries)} entries)")
    return EXIT_OK


def cmd_sobolev(args) -> int:
    report = sobolev.sobolev_report(seed=args.seed, trials=args.trials)
    path = _outpath(args, "sobolev.json")
    write_json(report, path)
    violations = report["algebra"]["violations"]
    print(
        f"ratio {report['ratio_star']:.4f} at lambda "
        f"{report['lambda_star']:.4f}; {violations} violations "
        f"in {args.trials} trials (wrote {path})"
    )
    return EXIT_OK if violations == 0 else EXIT_PROPERTY


def cmd_picard(args) -> int:
    report = picard.verify_heat_scenario(
        A=_one_amplitude(args, 1.0), t1=args.horizon, p=args.p,
        modes=args.modes, k_max=args.kmax,
    )
    path = _outpath(args, "picard.json")
    write_json(report.to_dict(), path)
    print(
        f"margins_ok={report.margins_ok} factorial_ok={report.factorial_ok} "
        f"cauchy_ok={report.cauchy_ok} (wrote {path})"
    )
    return EXIT_OK if report.passed else EXIT_PROPERTY


def cmd_fd(args) -> int:
    if args.profile_time is not None and args.p != 2:
        raise argparse.ArgumentError(
            None, "--profile-time needs --p 2: the closed-form limit "
            "profile exists only for p=2"
        )
    amplitudes = args.amplitudes or [4.0]
    estimates = []
    for A in amplitudes:
        config = fd.FdConfig(
            A=A, p=args.p, N=args.N, horizon=args.horizon,
            blowup_threshold=args.blowup_threshold,
            rtol=args.rtol, atol=args.atol,
        )
        estimates.append(fd.fd_blowup_time(config))
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "fd_estimates",
        "label": "reference estimates",
        "entries": [e.to_dict() for e in estimates],
    }
    if args.profile_time is not None:
        record["profile_deviation"] = fd.limit_profile_check(
            amplitudes[0], args.profile_time, N=args.N,
            rtol=args.rtol, atol=args.atol,
        )
    path = _outpath(args, "fd.json")
    write_json(record, path)
    fd.write_norms_csv(_outpath(args, "fd_norms.csv"), estimates[0].fine)
    written = [path, "fd_norms.csv"]
    if args.profile_time is not None:
        grid = fd.FdConfig(A=amplitudes[0], p=args.p, N=args.N).grid
        write_csv(
            _outpath(args, "fig_profile.csv"), ["x", "closed_form"],
            [grid, fd.limit_profile(args.profile_time, grid)],
        )
        written.append("fig_profile.csv")
    summary = ", ".join(
        f"A={e.coarse.config.A}: {fmt_float(e.value)}" for e in estimates
    )
    print(f"reference estimates {summary} (wrote {', '.join(written)})")
    return EXIT_OK


def cmd_wave(args) -> int:
    p = args.p
    cases = []
    for sup_pos, sup_abs in ((1.0, 1.0), (0.5, 1.0), (0.0, 1.0)):
        datum = wave.WaveDatum(sup_pos=sup_pos, sup_abs=sup_abs, p=p)
        tn = wave.wave_tn(datum)
        theta = wave.wave_theta(datum)
        cases.append(
            {
                "sup_pos": sup_pos,
                "sup_abs": sup_abs,
                "p": p,
            }
            | ext_pair("t_N", tn)
            | ext_pair("theta", theta)
            | {"norm_guarantee_sharp": theta == tn}
        )
    record = {
        "spec_version": SPEC_VERSION,
        "kind": "wave_cases",
        "cases": cases,
    }
    path = _outpath(args, "wave.json")
    write_json(record, path)
    print(f"wrote {path} ({len(cases)} cases)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evocontrol",
        description="Certified existence bounds for semilinear evolution "
        "problems: tables, scenarios and verification reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("table", help="existence-time table over amplitudes")
    _add_common(sp, amplitudes="many", tolerances=True, modes=True,
                horizon=50.0)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("scenario", help="single-amplitude trajectory run")
    _add_common(sp, amplitudes="one", tolerances=True, modes=True,
                horizon=50.0)
    sp.set_defaults(func=cmd_scenario)

    sp = sub.add_parser("critical", help="bisect the critical amplitude")
    # each run ends on a certificate, so no horizon or threshold applies
    _add_common(sp, modes=True)
    sp.add_argument("--rtol", type=float, default=1e-10)
    sp.add_argument("--atol", type=float, default=1e-12)
    sp.set_defaults(func=cmd_critical)

    sp = sub.add_parser("limit", help="amplitude-rescaled limit system")
    _add_common(sp, modes=True)
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("kaplan", help="blow-up upper bound cross-checks")
    _add_common(sp, amplitudes="many")
    sp.set_defaults(func=cmd_kaplan)

    sp = sub.add_parser("sobolev", help="multiplication constant bounds")
    # the Sobolev constants do not depend on p, so the command takes none
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=10_000)
    _add_out(sp)
    sp.set_defaults(func=cmd_sobolev)

    sp = sub.add_parser("picard", help="fixed-point verification run")
    _add_common(sp, amplitudes="one", modes=True, horizon=2.0)
    sp.add_argument("--kmax", type=int, default=10)
    sp.set_defaults(func=cmd_picard)

    sp = sub.add_parser("fd", help="finite-difference reference estimates")
    _add_common(sp, amplitudes="many", horizon=5.0)
    sp.add_argument("--N", type=int, default=256, help="interior grid points")
    sp.add_argument("--rtol", type=float, default=1e-8)
    sp.add_argument("--atol", type=float, default=1e-10)
    sp.add_argument(
        "--blowup-threshold", type=float, default=1e6,
        dest="blowup_threshold",
    )
    sp.add_argument(
        "--profile-time", type=float, default=None, dest="profile_time",
        help="rescaled time for the large-amplitude profile CSV",
    )
    sp.set_defaults(func=cmd_fd)

    sp = sub.add_parser("wave", help="solvable transport example cases")
    _add_common(sp)
    sp.set_defaults(func=cmd_wave)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EvocontrolError, ValueError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
