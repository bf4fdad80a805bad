"""Command-line front end: exit codes, file outputs, determinism."""

import json

from evocontrol import cli, fd, heat, sobolev


def _run(argv):
    return cli.main(argv)


def test_table_writes_csv_and_json(tmp_path):
    out = tmp_path / "t"
    code = _run([
        "table", "--A", "2", "--A", "0.5", "--horizon", "20",
        "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    lines = (out / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "A,t_N,t_G,t_K,eta"
    assert len(lines) == 3
    # the subcritical amplitude reports infinite times
    assert "inf" in lines[2]
    record = json.loads((out / "table.json").read_text())
    assert record["kind"] == "table"
    assert len(record["rows"]) == 2
    assert record["rows"][1]["t_G"] is None
    assert record["rows"][1]["t_G_infinite"] is True


def test_table_output_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run([
            "table", "--A", "4", "--horizon", "2", "--out", str(out),
        ]) == cli.EXIT_OK
    assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()
    assert (a / "table.json").read_bytes() == (b / "table.json").read_bytes()


def test_scenario_roundtrip_regenerates_identical_csv(tmp_path):
    out = tmp_path / "s"
    code = _run([
        "scenario", "--A", "4", "--horizon", "2", "--out", str(out),
    ])
    assert code == cli.EXIT_OK
    record = json.loads((out / "scenario.json").read_text())
    rebuilt = heat.scenario_from_record(record)
    result = heat.run_scenario(rebuilt)
    other = tmp_path / "replay.csv"
    heat.write_scenario_csv(result, other)
    assert other.read_bytes() == (out / "scenario.csv").read_bytes()
    for name in ("fig_alpha.csv", "fig_gamma.csv", "fig_norm_R.csv",
                 "fig_ratio.csv"):
        assert (out / name).exists()


def test_usage_errors_exit_2(capsys):
    assert _run([]) == cli.EXIT_USAGE
    assert _run(["table", "--modes", "1,x"]) == cli.EXIT_USAGE
    assert _run(["no-such-command"]) == cli.EXIT_USAGE
    capsys.readouterr()


def test_duplicate_modes_exit_2(capsys):
    assert _run(["table", "--modes", "1,1"]) == cli.EXIT_USAGE
    assert "distinct" in capsys.readouterr().err


def test_limit_without_mode_1_names_the_missing_mode(tmp_path, capsys):
    code = _run(["limit", "--modes", "3,5", "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERIC
    assert "mode 1 must belong to the mode set" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert _run(["--help"]) == 0
    capsys.readouterr()


def test_numeric_failure_exits_3(capsys):
    assert _run(["scenario", "--A", "-1"]) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "numeric failure" in err


def test_infinite_horizon_exits_3_without_output(tmp_path, capsys):
    # A=0.5 lies below C_N, so the run is global; an infinite window must
    # not turn it into a blow-up at t=0
    code = _run(["scenario", "--A", "0.5", "--horizon", "inf",
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_NUMERIC
    assert not (tmp_path / "scenario.json").exists()
    assert "finite" in capsys.readouterr().err


def test_single_amplitude_commands_reject_a_second_A(tmp_path, capsys):
    for argv in (["scenario", "--A", "1", "--A", "4"],
                 ["picard", "--A", "1", "--A", "9", "--horizon", "1"]):
        out = tmp_path / argv[0]
        assert _run([*argv, "--out", str(out)]) == cli.EXIT_USAGE
        assert not out.exists()
        assert "one --A" in capsys.readouterr().err


def test_property_violation_exits_4(tmp_path, monkeypatch, capsys):
    def fake_report(seed=0, trials=10_000):
        return {
            "spec_version": heat.SPEC_VERSION,
            "kind": "sobolev_bounds",
            "lambda_star": 1.55,
            "ratio_star": 0.81,
            "ratio_is_lower_bound": True,
            "convolution_checks": {},
            "algebra": {"violations": 1, "trials": trials, "seed": seed},
        }

    monkeypatch.setattr(sobolev, "sobolev_report", fake_report)
    code = _run(["sobolev", "--out", str(tmp_path)])
    assert code == cli.EXIT_PROPERTY
    capsys.readouterr()


def test_sobolev_subcommand(tmp_path):
    code = _run([
        "sobolev", "--trials", "200", "--seed", "1", "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "sobolev.json").read_text())
    assert report["ratio_star"] > 0.811
    assert report["algebra"]["violations"] == 0


def test_sobolev_rejects_a_power(tmp_path, capsys):
    # the Sobolev constants do not depend on p: a --p is a usage error,
    # not a flag the command ignores
    code = _run(["sobolev", "--p", "7", "--trials", "10",
                 "--out", str(tmp_path)])
    assert code == cli.EXIT_USAGE
    assert not (tmp_path / "sobolev.json").exists()
    capsys.readouterr()


def test_kaplan_subcommand(tmp_path):
    code = _run([
        "kaplan", "--A", "4", "--A", "0.5", "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    record = json.loads((tmp_path / "kaplan.json").read_text())
    blow, glob = record["entries"]
    assert abs(blow["t_K"] - blow["t_K_quadrature"]) <= 1e-8
    # below the threshold the upper bound yields no time at all, which
    # serializes as absent rather than infinite
    assert glob["t_K"] is None and glob["t_K_infinite"] is False


def test_picard_subcommand(tmp_path):
    code = _run([
        "picard", "--A", "1", "--horizon", "1.0", "--kmax", "3",
        "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    record = json.loads((tmp_path / "picard.json").read_text())
    assert record["passed"] is True


def test_fd_subcommand_with_profile(tmp_path):
    code = _run([
        "fd", "--A", "100", "--N", "64", "--horizon", "2",
        "--profile-time", "0.5", "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    record = json.loads((tmp_path / "fd.json").read_text())
    assert record["entries"][0]["estimate"] is not None
    assert record["profile_deviation"] <= 0.05
    assert (tmp_path / "fig_profile.csv").exists()
    assert (tmp_path / "fd_norms.csv").exists()


def test_fd_profile_needs_the_quadratic_power(tmp_path, capsys):
    # the closed-form limit profile exists only for p=2
    code = _run([
        "fd", "--A", "100", "--p", "3", "--profile-time", "0.5",
        "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_USAGE
    assert "--profile-time" in capsys.readouterr().err
    assert not (tmp_path / "fd.json").exists()


def test_fd_rejects_bad_tolerances_and_threshold(tmp_path, capsys):
    # FdConfig checks what the run needs before any run starts
    for flags in (["--rtol", "2"], ["--atol", "0"],
                  ["--A", "10", "--blowup-threshold", "5"]):
        code = _run(["fd", *flags, "--out", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC == 3
        assert "numeric failure" in capsys.readouterr().err
    assert not (tmp_path / "fd.json").exists()


def test_fd_profile_uses_the_run_tolerances(tmp_path, monkeypatch):
    seen = []

    def check(A, tau, N=256, rtol=1e-8, atol=1e-10):
        seen.append((A, tau, N, rtol, atol))
        return 0.0

    monkeypatch.setattr(fd, "limit_profile_check", check)
    code = _run([
        "fd", "--A", "100", "--N", "64", "--horizon", "2",
        "--rtol", "1e-7", "--atol", "1e-9", "--profile-time", "0.5",
        "--out", str(tmp_path),
    ])
    assert code == cli.EXIT_OK
    assert seen == [(100.0, 0.5, 64, 1e-7, 1e-9)]


def test_wave_subcommand(tmp_path):
    code = _run(["wave", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    record = json.loads((tmp_path / "wave.json").read_text())
    sharp = [c["norm_guarantee_sharp"] for c in record["cases"]]
    assert sharp == [True, False, False]
    assert record["cases"][2]["theta_infinite"] is True


def test_limit_subcommand(tmp_path):
    code = _run(["limit", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    record = json.loads((tmp_path / "limit.json").read_text())
    assert abs(record["escape_time"] - 1.026) <= 0.002


def test_critical_takes_no_horizon_or_threshold(tmp_path, capsys):
    # every critical run ends on a certificate, so neither flag applies
    for flag, value in (("--horizon", "3"), ("--blowup-threshold", "2")):
        out = tmp_path / flag.lstrip("-")
        assert _run(["critical", flag, value,
                     "--out", str(out)]) == cli.EXIT_USAGE
        assert not (out / "critical.json").exists()
    capsys.readouterr()


def test_undecided_critical_run_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(heat, "CRITICAL_BACKSTOP", 0.5)
    assert _run(["critical", "--out", str(tmp_path)]) == cli.EXIT_NUMERIC
    assert not (tmp_path / "critical.json").exists()
    assert "no certificate decided the run" in capsys.readouterr().err
