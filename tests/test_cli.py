"""Exit codes, output files, and printed reports of the command-line driver.

Exercised through cli.main(argv) so the tests see the same dispatch,
error mapping, and printing as a shell user, without spawning processes.
"""

import contextlib
import dataclasses
import io
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ehd2d import cli, diagnostics, load_matrix, save_matrix, sim

FAST = ["--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "time.dt=1e-3",
        "--set", "time.t_max=3e-3"]
HUGE_MASS = ["--preset", "vortex-charge", "--set", "grid.nx=16", "--set", "grid.ny=16",
             "--set", "initial.M=1e6", "--set", "initial.N=2e6"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["presets", "--frobnicate"]) == 1

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("argv, key", [
        (["--preset", "near-equilibrium", "--set", "initial.M=1e300"], "initial.M = 1e+300"),
        (["--preset", "vortex-charge", "--set", "initial.amplitude=1e307",
          "--set", "time.t_max=0.01"], "initial.amplitude = 1e+307"),
        (["--preset", "relax-small-mass", "--set", "initial.M=1e200"], "initial.M = 1e+200"),
        (["--preset", "vortex-charge", "--set", "grid.lx=2.4e-153", "--set", "grid.ly=2.4e-153",
          "--set", "initial.M=1e-300", "--set", "initial.N=1e-300",
          "--set", "initial.amplitude=1e160", "--set", "time.t_max=0.001"],
         "initial.amplitude = 1e+160"),
    ])
    def test_overflowing_value_names_its_key(self, tmp_path, capsys, command, argv, key):
        """Values whose initial state has no finite squared norm on the grid
        were solver errors after a page of overflow warnings; they are
        config errors naming the key, with no RuntimeWarning and no output.
        On cells of 3e-154 the vortex of amplitude 1e160 has face speeds
        that overflow, which ended in "vector field contains non-finite
        entries" (exit 2). load_config decides every case, so the stationary
        command rejects them too: at M = 1e200 it printed "converged in 0
        iterations, residual inf", wrote an all-zero phi_inf.txt and exited 0."""
        for cmd in (command, "stationary"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([cmd, "--quiet", *argv, "--set", "grid.nx=8",
                                 "--set", "grid.ny=8", "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: {key} is too large"), err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--set", "grid.nx=3", "--set", "grid.ny=3", "--set", "grid.lx=1000",
          "--set", "grid.ly=1000", "--set", "initial.M=1e153", "--set", "initial.N=2e153"],
         "initial.M = 1e+153 is too large for this grid"),
        (["--preset", "vortex-charge", "--set", "grid.nx=8", "--set", "grid.ny=5",
          "--set", "grid.lx=1.6537301355357626e+144", "--set", "initial.M=3.37386563221791e-293"],
         "initial.M = 3.37386563221791e-293 is too small for this grid"),
    ])
    def test_mass_the_grid_cannot_carry(self, tmp_path, capsys, argv, message):
        """Masses that passed the density bound but not the Newton solve,
        which exited 2: on 333 x 333 cells the potential of M = 1e153
        overflowed the stop ("residual or bound overflows"), and M = 3.4e-293
        on cells of 2e143 x 0.2 made sqrt(vol/M) overflow ("no descent
        direction"). Every command rejects them before any solve."""
        for command in ("run", "check", "stationary"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main([command, "--quiet", *argv, "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"config error: {message}"), err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert not (tmp_path / "out").exists()

    def test_config_error_maps_to_one(self, tmp_path, capsys):
        percent = tmp_path / "percent.cfg"
        percent.write_text("[grid]\nnx = 8%x\n")
        negative = ["--preset", "near-equilibrium", "--set", "grid.nx=16",
                    "--set", "grid.ny=16", "--set", "initial.eps=5"]
        # the charge bumps underflow to zero on every cell of this grid
        stretched = ["--preset", "relax-small-mass", "--set", "grid.nx=8",
                     "--set", "grid.ny=8", "--set", "grid.lx=1000",
                     "--set", "grid.ly=0.001"]
        for bad in (["--set", "time.dt=-1"], ["--set", "tolerances.pb=nan"],
                    ["--set", "tolerances.pb=1e-10"],
                    ["--set", "tolerances.poisson=1e-8"],
                    ["--set", "tolerances.projection=1e-8"],
                    ["--config", str(percent)], negative, stretched,
                    ["--set", "time.dt=1e-310"]):
            code = cli.main(["run", *bad, "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_bad_charge_file_is_one_line_config_error(self, tmp_path, capsys):
        vp, wp = str(tmp_path / "v.txt"), str(tmp_path / "w.txt")
        empty = str(tmp_path / "empty.txt")
        save_matrix(vp, np.ones((3, 5)))
        save_matrix(wp, np.ones((8, 8)))
        open(empty, "w").close()
        for v_file, w_file in ((vp, wp), (empty, wp), (wp, empty)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli.main(["run", "--set", "grid.nx=8", "--set", "grid.ny=8",
                                 "--set", f"initial.v_file={v_file}",
                                 "--set", f"initial.w_file={w_file}",
                                 "--out", str(tmp_path / "out")])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), err
            assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("side", ["1e-200", "1e200"])
    def test_extreme_grid_sides_are_config_errors(self, side, tmp_path, capsys):
        """Cells whose size, area or 1/h^2 leave the double range."""
        code = cli.main(["stationary", "--set", "grid.nx=8", "--set", "grid.ny=8",
                         "--set", f"grid.lx={side}", "--set", f"grid.ly={side}",
                         "--set", "initial.N=0.2", "--out", str(tmp_path / "s")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err

    def test_unknown_key_maps_to_one(self, capsys):
        assert cli.main(["run", "--set", "grid.bogus=3"]) == 1

    def test_solver_error_maps_to_two(self, tmp_path, capsys, monkeypatch):
        """A Newton solve that runs out of iterations: every direction is
        cut to a thousandth, so 50 steps cannot reach the rounding stop."""
        from ehd2d import stationary
        exact = stationary.splu

        class ShortLU:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return 1e-3 * self.lu.solve(b)

        monkeypatch.setattr(stationary, "splu",
                            lambda *args, **kwargs: ShortLU(exact(*args, **kwargs)))
        code = cli.main(["stationary", "--preset", "relax-small-mass",
                         "--set", "grid.nx=16", "--set", "grid.ny=16",
                         "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error:"), err
        assert "did not converge after 50 iterations" in err[0]

    def test_non_finite_newton_direction_maps_to_two(self, tmp_path, capsys,
                                                     monkeypatch):
        from ehd2d import stationary

        class NanLU:
            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(stationary, "splu", lambda *args, **kwargs: NanLU())
        code = cli.main(["stationary", "--preset", "relax-small-mass",
                         "--set", "grid.nx=16", "--set", "grid.ny=16",
                         "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error:"), err
        assert "no descent direction at iteration 1" in err[0]

    def test_solver_error_in_run_names_step(self, tmp_path, capsys, monkeypatch):
        from ehd2d import sim
        from ehd2d.errors import NonConvergence
        calls = []
        inner = sim.step_charges

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NonConvergence(1, -1.0e-9, "charge positivity")
            return inner(*args)

        monkeypatch.setattr(sim, "step_charges", failing)
        code = cli.main(["run", "--preset", "relax-small-mass", *FAST,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["solver error: step 3 (t = 0.002, dt = 0.001): charge "
                       "positivity did not converge after 1 iterations "
                       "(residual -1.000e-09)"]


class TestPresetsCommand:
    def test_lists_all(self, capsys):
        assert cli.main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("symmetric-null", "relax-small-mass", "vortex-charge",
                     "near-equilibrium"):
            assert name in out, f"{name} missing from listing"


class TestRunCommand:
    def test_writes_expected_tree(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--preset", "vortex-charge", *FAST,
                         "--out", str(out)])
        assert code == 0
        csv = out / "diagnostics.csv"
        assert csv.is_file()
        header = csv.read_text().splitlines()[0]
        assert header.startswith("t,mass_v,mass_w,")
        for name in ("phi_inf.txt", "v_inf.txt", "w_inf.txt", "metadata.txt"):
            assert (out / "stationary" / name).is_file(), name
        assert (out / "snapshots" / "v_000000.txt").is_file()
        assert "wrote" in capsys.readouterr().out

    def test_quiet_silences_progress(self, tmp_path, capsys):
        code = cli.main(["run", "--preset", "symmetric-null", *FAST,
                         "--quiet", "--out", str(tmp_path / "out")])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_large_mass_run_completes(self, tmp_path):
        """M = 100, N = 150 is admissible data; the equilibrium solve at
        set-up converges and the run ends normally."""
        with pytest.warns(UserWarning, match="small-data threshold"):
            code = cli.main(["run", "--preset", "relax-small-mass", "--quiet",
                             "--set", "initial.M=100", "--set", "initial.N=150",
                             "--set", "grid.nx=32", "--set", "grid.ny=32",
                             "--set", "time.t_max=0.01",
                             "--out", str(tmp_path / "out")])
        assert code == 0

    def test_equal_charge_files_take_any_dt(self, tmp_path):
        """One rough charge file for both species gives phi = 0, so no CFL
        cap applies: a single step of dt = 1e4 ends normally with the mass
        held to rounding."""
        path = str(tmp_path / "c.txt")
        c = np.random.default_rng(5).uniform(0.0, 1.0, (128, 128))
        c[c < 0.3] = 0.0
        save_matrix(path, c)
        mass = float(c.sum()) / 128 ** 2
        out = tmp_path / "out"
        code = cli.main(["run", "--quiet", "--set", "grid.nx=128", "--set", "grid.ny=128",
                         "--set", f"initial.v_file={path}",
                         "--set", f"initial.w_file={path}",
                         "--set", f"initial.M={mass!r}", "--set", f"initial.N={mass!r}",
                         "--set", "time.dt=1e4", "--set", "time.t_max=1e4",
                         "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "diagnostics.csv", delimiter=",", skiprows=1, ndmin=2)
        assert rows[:, 0].tolist() == [0.0, 1e4]
        assert rows[1, 1] == pytest.approx(rows[0, 1], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv", [
        ["--preset", "relax-small-mass", "--set", "grid.nx=8192", "--set", "grid.ny=3",
         "--set", "initial.M=5", "--set", "initial.N=10", "--set", "time.t_max=0.002"],
        ["--preset", "vortex-charge", "--set", "grid.nx=64", "--set", "grid.ny=64",
         "--set", "initial.amplitude=1e6", "--set", "time.t_max=1e-9"],
        ["--preset", "vortex-charge", "--set", "grid.nx=64", "--set", "grid.ny=64",
         "--set", "initial.amplitude=1e8", "--set", "time.t_max=1e-9"],
    ], ids=["thin-8192x3", "vortex-1e6", "vortex-1e8"])
    def test_rounding_bounds_follow_the_data(self, argv, tmp_path):
        """Runs a fixed tolerance failed: the Newton solve on a thin grid
        (residual floor 3.8e-10 against 1e-10) and the projection of fast
        vortices (divergence 1.6e-7 and 2.0e-5 against 1e-8)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # M + N above rho0_warn
            code = cli.main(["run", "--quiet", *argv, "--out", str(tmp_path / "out")])
        assert code == 0

    def test_config_file_round_trip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "[grid]\nnx = 16\nny = 16\n"
            "[time]\ndt = 1e-3\nt_max = 2e-3\n"
            "[initial]\npreset = symmetric-null\n"
        )
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(cfgfile), "--quiet",
                         "--out", str(out)])
        assert code == 0
        assert (out / "diagnostics.csv").is_file()


class TestStationaryCommand:
    def test_writes_solution_and_reports(self, tmp_path, capsys):
        out = tmp_path / "stat"
        code = cli.main(["stationary", "--preset", "relax-small-mass",
                         "--set", "grid.nx=24", "--set", "grid.ny=24",
                         "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "converged in" in printed
        iterations = int(printed.split("converged in ")[1].split()[0])
        newton = [line for line in printed.splitlines() if line.startswith("newton ")]
        assert len(newton) == iterations + 1
        assert newton[0].startswith("newton 0: residual ")
        assert "sinh-form residual" in printed
        phi = load_matrix(str(out / "phi_inf.txt"))
        assert phi.shape == (24, 24)
        meta = (out / "metadata.txt").read_text()
        assert "nx = 24" in meta
        assert "M = 0.05" in meta

    def test_set_overrides_reach_solver(self, tmp_path, capsys):
        out = tmp_path / "stat"
        code = cli.main(["stationary", "--quiet", "--set", "grid.nx=12",
                         "--set", "grid.ny=10", "--set", "initial.M=0.2",
                         "--set", "initial.N=0.2", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == "", "--quiet prints no Newton history"
        assert load_matrix(str(out / "phi_inf.txt")).shape == (10, 12)
        assert "M = 0.2" in (out / "metadata.txt").read_text()

    def test_equal_masses_give_flat_potential(self, tmp_path, capsys):
        out = tmp_path / "stat"
        assert cli.main(["stationary", "--set", "grid.nx=16",
                         "--set", "grid.ny=16", "--out", str(out)]) == 0
        phi = load_matrix(str(out / "phi_inf.txt"))
        assert np.abs(phi).max() <= 1e-10


class TestCheckCommand:
    @pytest.mark.parametrize("preset", ["symmetric-null", "vortex-charge"])
    def test_healthy_preset_passes(self, preset, tmp_path, capsys):
        code = cli.main(["check", "--preset", preset, *FAST,
                         "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == 0, printed
        lines = [ln for ln in printed.splitlines() if ln]
        assert lines[-1] == "all properties passed"
        body = lines[:-1]
        assert len(body) == 11 and all(ln.startswith("PASS") for ln in body), printed

    def test_huge_mass_passes(self, tmp_path, capsys):
        """At M = 1e6, N = 2e6 every line passes. The Csiszar-Kullback line's
        constant grows with the masses: ck_lhs is 12.5 times 4 W_rel, within
        c W_rel for c = 4e6. The check printed a Poisson line here too, which
        re-read the residual bound solve_dirichlet had already passed (2.5e-8
        of rounding), so it could not fail."""
        code = cli.main(["check", *HUGE_MASS, "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == 0, printed
        lines = printed.splitlines()
        assert len(lines) == 12 and all(ln.startswith("PASS") for ln in lines[:-1]), printed
        assert "PASS Csiszar-Kullback inequality" in lines

    def test_fast_vortex_passes(self, tmp_path, capsys):
        """At amplitude 1e6 the initial discrete curl keeps a divergence of
        4.8e-8 from rounding, and the burst's projections up to 1e-7: both
        divergence lines read the projection's rounding bound."""
        code = cli.main(["check", "--preset", "vortex-charge", "--set", "grid.nx=64",
                         "--set", "grid.ny=64", "--set", "initial.amplitude=1e6",
                         "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == 0, printed

    def test_mass_mismatch_is_config_error(self, tmp_path, capsys):
        """Charge files must carry the configured masses: the equilibrium is
        solved at initial.M and initial.N, and transport keeps the files'
        masses, so a mismatch would be measured against a state the run
        never reaches. With the files' masses set, the same check passes."""
        vp, wp = str(tmp_path / "v.txt"), str(tmp_path / "w.txt")
        save_matrix(vp, np.full((16, 16), 4.0))
        save_matrix(wp, np.full((16, 16), 4.0))
        files = ["--set", f"initial.v_file={vp}", "--set", f"initial.w_file={wp}",
                 "--out", str(tmp_path / "out")]
        assert cli.main(["check", *FAST, *files]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "mass 4.0" in err[0] and "initial.M is 0.1" in err[0], err
        code = cli.main(["check", *FAST, *files, "--set", "initial.M=4",
                         "--set", "initial.N=4"])
        printed = capsys.readouterr().out
        assert code == 0, printed

    @pytest.mark.parametrize("factor, expected", [(0.99, 0), (1.01, 3)])
    def test_csiszar_kullback_line_fails_above_its_bound(self, factor, expected,
                                                         tmp_path, capsys, monkeypatch):
        """With ck_lhs moved to just below or just above c W_rel, where
        c = max(4, (2||v||_1 + 4M)/3, (2||w||_1 + 4N)/3) = 4e6 here, the line
        passes or fails, and a failure ends with exit 3."""
        real = cli.energy_report

        def moved(state, s):
            rep = real(state, s)
            c = diagnostics.ck_constant(rep, 1e6, 2e6)
            assert c == pytest.approx(4e6, rel=1e-12)
            return dataclasses.replace(rep, ck_lhs=factor * c * rep.W_rel)

        monkeypatch.setattr(cli, "energy_report", moved)
        code = cli.main(["check", *HUGE_MASS, "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == expected, printed
        tag = "PASS" if expected == 0 else "FAIL"
        assert f"{tag} Csiszar-Kullback inequality" in printed


    def test_burst_failure_names_step_t_and_dt(self, tmp_path, capsys, monkeypatch):
        """check steps through sim.trajectory, so a solver failure in its
        burst says where it happened, as it does in run, and exits 2."""
        from ehd2d.errors import NonConvergence
        calls = []
        inner = sim.step_charges

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NonConvergence(1, 2.5e-3, "charge transport solve")
            return inner(*args)

        monkeypatch.setattr(sim, "step_charges", failing)
        code = cli.main(["check", "--preset", "relax-small-mass", *FAST,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["solver error: step 3 (t = 0.002, dt = 0.001): charge "
                       "transport solve did not converge after 1 iterations "
                       "(residual 2.500e-03)"]

    def test_large_mass_warns(self, tmp_path, capsys):
        """check sets up through sim.setup, which warns past rho0_warn."""
        with pytest.warns(UserWarning, match="small-data threshold"):
            code = cli.main(["check", "--preset", "relax-small-mass", *FAST,
                             "--set", "initial.M=20", "--set", "initial.N=20",
                             "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().out

    def test_burst_is_ten_steps_whatever_t_max(self, tmp_path, capsys, monkeypatch):
        """FAST ends at t_max = 3e-3, three steps of dt = 1e-3; the burst
        takes ten steps of sim.trajectory with no end time all the same."""
        seen = []
        inner = sim.trajectory

        def recorded(*args, **kwargs):
            for item in inner(*args, **kwargs):
                seen.append(item)
                yield item

        monkeypatch.setattr(sim, "trajectory", recorded)
        code = cli.main(["check", "--preset", "relax-small-mass", *FAST,
                         "--out", str(tmp_path / "out")])
        assert code == 0, capsys.readouterr().out
        assert [n for n, _, _, _ in seen] == list(range(1, 11))
        assert [dt for _, dt, _, _ in seen] == [1e-3] * 10
        assert not any(last for _, _, _, last in seen)
        assert seen[-1][2].t == pytest.approx(1e-2, rel=1e-12)

    def test_burst_takes_the_dt_of_run(self, tmp_path, capsys, monkeypatch):
        """The CFL limit binds and loosens as the vortex decays; each burst
        step takes min(time.dt, CFL limit), the dt run takes, and not the
        smallest dt so far."""
        argv = ["--preset", "vortex-charge", "--set", "grid.nx=16", "--set", "grid.ny=16",
                "--set", "initial.amplitude=2", "--set", "time.dt=0.05",
                "--set", "time.t_max=1", "--out", str(tmp_path / "out")]
        dts = {}
        inner = sim.step
        for command in ("check", "run"):
            dts[command] = []

            def recorded(state, dt, **kwargs):
                if len(dts[command]) == 10:
                    raise StopRun
                dts[command].append(dt)
                return inner(state, dt, **kwargs)

            monkeypatch.setattr(sim, "step", recorded)
            with contextlib.suppress(StopRun):
                cli.main([command, "--quiet", *argv])
        assert dts["check"] == dts["run"]
        assert dts["check"][-1] > dts["check"][0], "test needs a CFL limit that loosens"


class StopRun(Exception):
    """Ends a run after the steps a test needs."""


# Each float key of the config, drawn log-uniformly across the positive
# finite doubles (or left at its default); grids up to 8^2, and runs cut
# after MAX_STEPS steps, since a tiny dt or a fast vortex would otherwise
# take millions.
FLOAT_KEYS = [key for key, value in sim.DEFAULTS.items() if isinstance(value, float)]
MAX_STEPS = 3


@st.composite
def command_lines(draw):
    argv = ["--preset", draw(st.sampled_from(sim.presets())),
            "--set", f"grid.nx={draw(st.integers(3, 8))}",
            "--set", f"grid.ny={draw(st.integers(3, 8))}"]
    for section, key in FLOAT_KEYS:
        if draw(st.booleans()):
            value = 10.0 ** draw(st.floats(-323.3, 308.25))
            argv += ["--set", f"{section}.{key}={value!r}"]
    return argv


class TestAnyFiniteConfig:
    """Whatever finite values the config holds, the CLI ends with an exit
    code and at most one error line, never a traceback, and no
    RuntimeWarning reaches the user (the large-mass UserWarning may)."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(command=st.sampled_from(["run", "check"]), argv=command_lines())
    def test_exit_code_and_one_error_line(self, command, argv):
        calls = []
        inner = sim.step

        def capped(*args, **kwargs):
            calls.append(args)
            if command == "run" and len(calls) > MAX_STEPS:
                raise StopRun
            return inner(*args, **kwargs)

        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sim, "step", capped), \
                warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = cli.main([command, "--quiet", *argv, "--out", os.path.join(tmp, "o")])
            except StopRun:
                code = None
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if code is None:
            return
        assert code in ((0, 1, 2) if command == "run" else (0, 1, 2, 3)), err.getvalue()
        lines = err.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("config error:"), lines
        elif code == 2:
            assert len(lines) == 1 and lines[0].startswith("solver error:"), lines
        else:
            assert lines == []


class TestAnyFiniteStationary:
    """The stationary command over the same command lines: it ends with an
    exit code and at most one error line and raises no RuntimeWarning, and
    a solution it writes is finite, with a finite residual."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(argv=command_lines())
    def test_exit_code_and_finite_solution(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            outdir = os.path.join(tmp, "o")
            code = cli.main(["stationary", "--quiet", *argv, "--out", outdir])
            if code == 0:
                meta = dict(line.split(" = ") for line in
                            open(os.path.join(outdir, "metadata.txt")).read().splitlines())
                phi = load_matrix(os.path.join(outdir, "phi_inf.txt"))
        assert not [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2), lines
        if code == 0:
            assert lines == []
            assert np.isfinite(float(meta["residual"]))
            assert np.isfinite(phi).all()
        else:
            prefix = "config error:" if code == 1 else "solver error:"
            assert len(lines) == 1 and lines[0].startswith(prefix), lines


class TestEntryPoint:
    def test_module_docstring_documents_exit_codes(self):
        for token in ("0 success", "1 usage/config", "2 solver", "3 property"):
            assert token in cli.__doc__

    def test_out_flag_overrides_config_value(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"[output]\ndir = {tmp_path / 'ignored'}\n")
        out = tmp_path / "used"
        code = cli.main(["stationary", "--quiet", "--config", str(cfgfile),
                         "--set", "grid.nx=12", "--set", "grid.ny=12",
                         "--out", str(out),
                         "--set", f"output.dir={tmp_path / 'ignored-set'}"])
        assert code == 0
        assert out.is_dir()
        assert not (tmp_path / "ignored").exists()
        assert not (tmp_path / "ignored-set").exists()
