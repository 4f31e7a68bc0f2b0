"""End-to-end checks of the command-line surface.

Most cases drive main() in-process and read captured stdout/stderr; byte
determinism is checked through real subprocesses.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import pytest

from edecoh.cli import main
from edecoh.quadrature import NonConvergenceError

ALPHA = 7.2973525693e-3


def _run(capsys, argv: list[str]) -> tuple[int, str, str]:
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _field(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{name} = "):
            return float(line.split(" = ", 1)[1])
    raise AssertionError(f"no line for {name!r} in output")


class TestKappaSweep:
    def test_sphere_is_a_single_exact_row(self, capsys):
        rc, out, _ = _run(capsys, ["kappa-sweep", "--shape", "sphere"])
        assert rc == 0
        assert out == "beta,kappa,error_estimate\n-,-1.5,0\n"

    def test_cylinder_smoke_grid_pins_the_slope_break(self, capsys):
        rc, out, _ = _run(
            capsys,
            ["kappa-sweep", "--beta-min", "1", "--beta-max", "4", "--steps", "2"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "beta,kappa,error_estimate"
        rows = [line.split(",") for line in lines[1:]]
        # the requested endpoints plus the pinned slope-break point
        assert [r[0] for r in rows] == ["1", "2", "4"]
        for _, kap, err in rows:
            assert math.isfinite(float(kap))
            assert 0.0 < float(err) < 1e-4

    def test_no_insertion_outside_the_bracket(self, capsys):
        rc, out, _ = _run(
            capsys,
            ["kappa-sweep", "--beta-min", "3", "--beta-max", "5", "--steps", "2"],
        )
        assert rc == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["3", "5"]

    def test_rel_tol_below_four_eps_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        rc, out, err = _run(capsys, ["kappa-sweep", "--rel-tol", "1e-300"])
        assert rc == 2
        assert out == ""
        assert "rel_tol must be at least 4 eps" in err
        assert time.perf_counter() - start < 10.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["kappa-sweep", "--beta-min", "0", "--beta-max", "4", "--steps", "3"],
            ["kappa-sweep", "--beta-min", "4", "--beta-max", "1", "--steps", "3"],
            ["kappa-sweep", "--beta-min", "1", "--beta-max", "4", "--steps", "1"],
        ],
    )
    def test_bad_grids_exit_2(self, capsys, argv):
        rc, _, err = _run(capsys, argv)
        assert rc == 2
        assert err.startswith("error:")

    def test_nonconvergence_exits_3_with_partial_output(self, capsys, tmp_path, monkeypatch):
        def explode(wp, cfg=None):
            raise NonConvergenceError("kappa quadrature stalled")

        monkeypatch.setattr("edecoh.cli.kappa", explode)
        out_file = tmp_path / "sweep.csv"
        rc, _, err = _run(
            capsys,
            ["kappa-sweep", "--beta-min", "1", "--beta-max", "4", "--steps", "2",
             "--out", str(out_file)],
        )
        assert rc == 3
        assert "stalled" in err
        # the header was flushed before the failure
        assert out_file.read_text() == "beta,kappa,error_estimate\n"


class TestParallelCommand:
    def test_defaults_reproduce_the_reference_point(self, capsys):
        rc, out, _ = _run(capsys, ["parallel"])
        assert rc == 0
        assert "w_total = 0.0248781871089\n" in out
        # 12 significant digits survive the round trip
        assert _field(out, "contrast") == pytest.approx(math.exp(0.0248781871089), rel=1e-11)
        assert _field(out, "kappa") == -1.5

    def test_negative_separation_names_the_invariant(self, capsys):
        rc, _, err = _run(capsys, ["parallel", "--r0", "-5"])
        assert rc == 2
        assert "r0 must be positive" in err

    def test_T_sweep_reaches_the_plateau(self, capsys):
        rc, out, _ = _run(
            capsys,
            ["parallel", "--sweep", "T", "--sweep-min", "1e4", "--sweep-max", "1e7",
             "--sweep-steps", "4", "--log-spacing"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "T,w_vacuum,w_photon,w_total"
        assert len(lines) == 5
        totals = [float(line.split(",")[3]) for line in lines[1:]]
        assert abs(totals[-1] - totals[-2]) < 1e-3 * abs(totals[-1])

    def test_vacuum_term_is_logarithmic_in_packet_size(self, capsys):
        # w_vacuum = (alpha/pi) [2 - kappa + 2 ln(T/ell)] with ell = 2R: each
        # tenfold larger packet moves it by -2 (alpha/pi) ln 10, and the
        # photon term does not see the packet
        runs = [_run(capsys, ["parallel", "--radius", r]) for r in ("0.05", "0.5", "5")]
        assert [rc for rc, _, _ in runs] == [0, 0, 0]
        vacuum = [_field(out, "w_vacuum") for _, out, _ in runs]
        step = -2.0 * ALPHA / math.pi * math.log(10.0)
        for smaller, larger in zip(vacuum, vacuum[1:]):
            assert larger - smaller == pytest.approx(step, rel=1e-11)
        assert len({_field(out, "w_photon") for _, out, _ in runs}) == 1

    def test_T_sweep_approaches_the_plateau_as_inverse_T_squared(self, capsys):
        # with x = r0/T, K(T, r0) = -2 - 2 ln(T/r0) + x^2/3 + x^4/10 + O(x^6),
        # so w_total = (alpha/pi) [2 ln(r0/ell) - kappa + x^2/3] + O(x^4)
        rc, out, _ = _run(capsys, ["parallel", "--sweep", "T", "--log-spacing"])
        assert rc == 0
        a = ALPHA / math.pi
        r0, ell = 100.0, 1.0  # the defaults: --r0 100, a sphere of radius 0.5
        plateau = a * (2.0 * math.log(r0 / ell) + 1.5)
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert len(rows) == 25
        for T, _, _, total in rows:
            x = r0 / T
            assert abs(total - plateau - a * x * x / 3.0) <= a * x**4 + 1e-13

    def test_flight_time_equal_to_separation_takes_the_limit(self, capsys):
        rc, out, _ = _run(capsys, ["parallel", "--r0", "1", "--T", "1"])
        assert rc == 0
        assert "K = -1.38629436112\n" in out

    def test_regime_notes_are_printed(self, capsys):
        rc, out, _ = _run(capsys, ["parallel", "--r0", "2", "--T", "1e6"])
        assert rc == 0
        assert any(line.startswith("note:") for line in out.splitlines())


class TestIntersectCommand:
    def test_breakdown_lists_every_kernel(self, capsys):
        rc, out, _ = _run(capsys, ["intersect"])
        assert rc == 0
        for name in ("kappa", "J_aa", "J_bb", "J_ab", "I_aa", "I_bb", "I_ab",
                     "w_vacuum", "w_photon", "w_total", "contrast"):
            assert f"{name} = " in out

    def test_closed_branch_matches_the_one_line_total(self, capsys):
        rc, out, _ = _run(capsys, ["intersect", "--theta", "0.7", "--v", "0.02"])
        assert rc == 0
        kap = _field(out, "kappa")
        expected = (
            0.5 * ALPHA / math.pi
            * (2.0 * math.log(2.0 * math.sin(0.7) / 0.02**2) + 4.0 - 3.0 * kap)
        )
        assert _field(out, "w_total") == pytest.approx(expected, rel=1e-12)

    def test_ell_sweep_column_is_flat(self, capsys):
        rc, out, _ = _run(capsys, ["intersect", "--ell-sweep"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "ell,w_vacuum,w_photon,w_total"
        assert len(lines) == 6
        totals = {line.split(",")[3] for line in lines[1:]}
        assert len(totals) == 1  # byte-identical w_total in every row
        ells = [float(line.split(",")[0]) for line in lines[1:]]
        assert ells == sorted(ells)

    def test_assembled_ell_sweep_reaching_L1_exits_2_before_any_work(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("the sweep ran before it was validated")

        monkeypatch.setattr("edecoh.cli.w_total_intersecting", explode)
        rc, out, err = _run(capsys, ["intersect", "--branch", "assembled", "--ell-sweep"])
        assert rc == 2
        assert out == ""
        # the sweep's x100 factor takes the default ell = 1 to L1 = 100
        assert "ell = 100" in err and "L1 = 100" in err

    def test_assembled_branch_agrees_with_closed(self, capsys):
        rc_c, out_c, _ = _run(capsys, ["intersect"])
        rc_a, out_a, _ = _run(capsys, ["intersect", "--branch", "assembled"])
        assert rc_c == 0 and rc_a == 0
        closed = _field(out_c, "w_total")
        assembled = _field(out_a, "w_total")
        assert abs(assembled - closed) < 0.01 * abs(closed)

    def test_invalid_angle_exits_2(self, capsys):
        rc, _, err = _run(capsys, ["intersect", "--theta", "1.5707963267948966"])
        assert rc == 2
        assert "theta" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["intersect", "--branch", "assembled", "--L1", "inf"], "L1"),
            (["intersect", "--branch", "assembled", "--L2", "inf"], "L2"),
            (["parallel", "--r0", "inf"], "r0"),
            (["parallel", "--radius", "inf"], "radius"),
            (["intersect", "--radius", "inf"], "radius"),
            (["intersect", "--shape", "cylinder", "--length", "nan"], "length"),
            (["validity", "--energy-ev", "inf"], "energy"),
            (["kappa-sweep", "--rel-tol", "inf"], "rel_tol"),
        ],
    )
    def test_non_finite_input_is_named(self, capsys, argv, name):
        rc, out, err = _run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert f"{name} must be finite" in err

    def test_assembled_tiny_speed_ends_on_the_evaluation_budget(self, capsys):
        # the inner poles pinch together; the numeric I_aa used to run for
        # minutes without end
        start = time.perf_counter()
        rc, _, err = _run(capsys, ["intersect", "--branch", "assembled", "--v", "1e-9"])
        assert rc == 3
        assert "I_aa numeric" in err and "budget" in err
        assert time.perf_counter() - start < 60.0

    @pytest.mark.parametrize("v", ["2e-16", "1e-13"])
    def test_assembled_excision_below_float_spacing_exits_2(self, capsys, v):
        # the two I_aa poles are distinct floats, but too close to excise
        start = time.perf_counter()
        rc, out, err = _run(capsys, ["intersect", "--branch", "assembled", "--v", v])
        assert rc == 2
        assert out == ""
        assert "float spacing" in err
        assert time.perf_counter() - start < 10.0

    def test_assembled_speed_below_pole_resolution_exits_2(self, capsys):
        start = time.perf_counter()
        rc, out, err = _run(capsys, ["intersect", "--branch", "assembled", "--v", "1e-300"])
        assert rc == 2
        assert out == ""
        assert "too small for the two I_aa poles to be distinct" in err
        assert time.perf_counter() - start < 10.0


class TestVerifyCommand:
    def test_kappa_suite_passes(self, capsys):
        rc, out, _ = _run(capsys, ["verify", "kappa"])
        assert rc == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "5 passed, 0 failed"

    def test_kernels_suite_passes(self, capsys):
        rc, out, _ = _run(capsys, ["verify", "kernels"])
        assert rc == 0
        assert out.splitlines()[-1] == "7 passed, 0 failed"

    def test_unknown_suite_exits_2(self, capsys):
        rc, _, _ = _run(capsys, ["verify", "bogus"])
        assert rc == 2

    def test_seed_reaches_the_monte_carlo_checks(self, capsys):
        rc, seeded, _ = _run(capsys, ["verify", "kappa", "--seed", "3"])
        assert rc == 0
        _, default, _ = _run(capsys, ["verify", "kappa"])
        assert seeded != default

    def test_any_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "edecoh.cli._verify_kappa",
            lambda args: [("forced failure probe", False, "detail")],
        )
        rc, out, _ = _run(capsys, ["verify", "kappa"])
        assert rc == 1
        assert "FAIL  forced failure probe" in out
        assert "0 passed, 1 failed" in out


class TestValidityCommand:
    def test_benchmark_point(self, capsys):
        rc, out, _ = _run(capsys, ["validity", "--energy-ev", "1e4", "--dx0", "1"])
        assert rc == 0
        assert out.splitlines()[0] == "max_flight_m = 1.02463344425"
        assert "sqrt(E / 10 keV)" in out

    def test_dx0_in_nanometers(self, capsys):
        rc, out, _ = _run(
            capsys, ["validity", "--energy-ev", "1e4", "--dx0", "10", "--unit", "nm"]
        )
        assert rc == 0
        bound = float(out.splitlines()[0].split(" = ")[1])
        assert bound == pytest.approx(1.02463344425e-4, rel=1e-9)

    def test_relativistic_energy_is_flagged(self, capsys):
        rc, out, _ = _run(capsys, ["validity", "--energy-ev", "1e5", "--dx0", "1"])
        assert rc == 0
        assert any(line.startswith("note:") for line in out.splitlines())
        _, out, _ = _run(capsys, ["validity", "--energy-ev", "1e4", "--dx0", "1"])
        assert "note:" not in out

    def test_negative_energy_exits_2(self, capsys):
        rc, _, err = _run(capsys, ["validity", "--energy-ev", "-1", "--dx0", "1"])
        assert rc == 2
        assert err.startswith("error:")


class TestConfigAndOutput:
    def test_config_seeds_defaults_and_flags_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# shared experiment settings\nr0 = 50\nT = 5e5\n")
        _, from_config, _ = _run(capsys, ["parallel", "--config", str(cfg)])
        _, direct, _ = _run(capsys, ["parallel", "--r0", "50", "--T", "5e5"])
        assert from_config == direct
        _, overridden, _ = _run(capsys, ["parallel", "--config", str(cfg), "--r0", "100"])
        _, direct2, _ = _run(capsys, ["parallel", "--r0", "100", "--T", "5e5"])
        assert overridden == direct2
        assert overridden != from_config

    def test_config_boolean_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("log-spacing = true\n")
        rc, out, _ = _run(
            capsys,
            ["parallel", "--config", str(cfg), "--sweep", "T", "--sweep-min", "1e4",
             "--sweep-max", "1e6", "--sweep-steps", "3"],
        )
        assert rc == 0
        # geometric midpoint, not arithmetic
        assert out.splitlines()[2].split(",")[0] == "100000"

    def test_config_keys_of_other_commands_are_accepted(self, capsys, tmp_path, monkeypatch):
        # one shared file: each command takes the keys it reads and ignores
        # those of the others
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nunit = nm\n")
        monkeypatch.setattr(
            "edecoh.cli._verify_kappa", lambda args: [("seed probe", True, f"seed {args.seed}")]
        )
        rc, out, _ = _run(capsys, ["verify", "kappa", "--config", str(cfg)])
        assert rc == 0
        assert "seed 3" in out
        rc, out, _ = _run(capsys, ["validity", "--dx0", "10", "--config", str(cfg)])
        assert (rc, out) == _run(capsys, ["validity", "--dx0", "10", "--unit", "nm"])[:2]
        rc, out, _ = _run(capsys, ["parallel", "--config", str(cfg)])
        assert (rc, out) == _run(capsys, ["parallel"])[:2]

    @pytest.mark.parametrize(
        "argv",
        [
            ["kappa-sweep", "--seed", "1"],
            ["parallel", "--unit", "nm"],
            ["validity", "--rel-tol", "1e-6"],
        ],
    )
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        rc, out, err = _run(capsys, argv)
        assert rc == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus_key = 1\n")
        rc, _, err = _run(capsys, ["parallel", "--config", str(cfg)])
        assert rc == 2
        assert "bogus_key" in err

    def test_malformed_config_line_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r0 50\n")
        rc, _, err = _run(capsys, ["parallel", "--config", str(cfg)])
        assert rc == 2
        assert "key=value" in err

    def test_out_redirects_everything(self, capsys, tmp_path):
        out_file = tmp_path / "rows.csv"
        rc, out, _ = _run(capsys, ["kappa-sweep", "--shape", "sphere", "--out", str(out_file)])
        assert rc == 0
        assert out == ""
        assert out_file.read_text() == "beta,kappa,error_estimate\n-,-1.5,0\n"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys,
            ["kappa-sweep", "--shape", "sphere", "--out", str(tmp_path / "no" / "dir.csv")],
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_help_exits_0_and_usage_error_exits_2(self, capsys):
        assert _run(capsys, ["--help"])[0] == 0
        assert _run(capsys, [])[0] == 2

    def test_closed_consumer_pipe_is_not_an_error(self, monkeypatch):
        class _ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

            def flush(self):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["kappa-sweep", "--shape", "sphere"]) == 0


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self):
        argv = [
            sys.executable, "-m", "edecoh",
            "kappa-sweep", "--beta-min", "1", "--beta-max", "4", "--steps", "2",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.count(b"\n") == 4

    def test_console_script_is_installed(self):
        proc = subprocess.run(
            ["edecoh", "validity", "--energy-ev", "1e4", "--dx0", "1"],
            capture_output=True,
            check=True,
        )
        assert b"1.02463344425" in proc.stdout
