"""Exit codes, output files, and printed reports of the command-line driver.

Exercised through cli.main(argv) so the tests see the same dispatch,
error mapping, and printing as a shell user, without spawning processes.
"""

import os
import warnings

import numpy as np
import pytest

from ehd2d import cli, load_matrix, save_matrix

FAST = ["--set", "grid.nx=16", "--set", "grid.ny=16", "--set", "time.dt=1e-3",
        "--set", "time.t_max=3e-3"]


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.main(["presets", "--frobnicate"]) == 1

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_config_error_maps_to_one(self, capsys):
        code = cli.main(["run", "--set", "time.dt=-1"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

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

    def test_unknown_key_maps_to_one(self, capsys):
        assert cli.main(["run", "--set", "grid.bogus=3"]) == 1

    def test_solver_error_maps_to_two(self, tmp_path, capsys):
        code = cli.main(["stationary", "--preset", "relax-small-mass",
                         "--set", "grid.nx=16", "--set", "grid.ny=16",
                         "--set", "tolerances.pb=1e-30",
                         "--out", str(tmp_path / "s")])
        assert code == 2
        assert "solver error" in capsys.readouterr().err

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
        assert "sinh-form residual" in printed
        phi = load_matrix(str(out / "phi_inf.txt"))
        assert phi.shape == (24, 24)
        meta = (out / "metadata.txt").read_text()
        assert "nx = 24" in meta
        assert "M = 0.05" in meta

    def test_set_overrides_reach_solver(self, tmp_path):
        out = tmp_path / "stat"
        code = cli.main(["stationary", "--quiet", "--set", "grid.nx=12",
                         "--set", "grid.ny=10", "--set", "initial.M=0.2",
                         "--set", "initial.N=0.2", "--out", str(out)])
        assert code == 0
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
        assert body and all(ln.startswith("PASS") for ln in body), printed

    def test_mass_mismatch_fails_with_code_three(self, tmp_path, capsys):
        """Charge files whose masses disagree with the config are the one
        honest way to reach the failure exit without breaking a solver."""
        vp, wp = str(tmp_path / "v.txt"), str(tmp_path / "w.txt")
        save_matrix(vp, np.full((16, 16), 4.0))
        save_matrix(wp, np.full((16, 16), 4.0))
        code = cli.main(["check", *FAST,
                         "--set", f"initial.v_file={vp}",
                         "--set", f"initial.w_file={wp}",
                         "--out", str(tmp_path / "out")])
        printed = capsys.readouterr().out
        assert code == 3, printed
        assert "FAIL initial masses match config" in printed
        assert "properties failed" in printed


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
                         "--out", str(out)])
        assert code == 0
        assert out.is_dir()
        assert not (tmp_path / "ignored").exists()
