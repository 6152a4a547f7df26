"""Configuration layering, preset initial data, the coupled step, and run().

Covers the contracts a driver depends on: precedence of defaults, preset
defaults, config file and command-line overrides; initial states with the
advertised masses and constraints; CFL enforcement; recording cadence and
snapshot layout; and bit-reproducible CSV output.
"""

import os

import numpy as np
import pytest

from ehd2d import (
    div_from_faces,
    embed_stationary,
    integrate,
    load_matrix,
    lp_norm,
    save_matrix,
    solve_pb,
)
from ehd2d.diagnostics import CSV_COLUMNS, csv_header, csv_row
from ehd2d.errors import CflViolation, ConfigError, NonConvergence
from ehd2d.sim import (
    DEFAULTS,
    build_initial_state,
    cfl_limit,
    load_config,
    presets,
    run,
    setup,
    step,
    trajectory,
)


def small(preset, *extra):
    """Config for a quick 16^2 run of the given preset."""
    overrides = ["grid.nx=16", "grid.ny=16", "time.dt=1e-3", "time.t_max=5e-3",
                 "output.record_every=1"] + list(extra)
    return load_config(preset=preset, overrides=overrides)


class TestConfigLayering:
    def test_defaults_alone(self):
        cfg = load_config()
        assert cfg.preset == "symmetric-null"
        assert cfg.nx == DEFAULTS[("grid", "nx")]
        assert cfg.dt == DEFAULTS[("time", "dt")]

    def test_preset_defaults_apply(self):
        cfg = load_config(preset="relax-small-mass")
        assert cfg.M == 0.05 and cfg.N == 0.1
        assert cfg.lx == 4.0 and cfg.ly == 4.0
        assert cfg.dt == 2e-3 and cfg.t_max == 5.0

    def test_file_beats_preset_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "[initial]\npreset = relax-small-mass\n"
            "[time]\ndt = 3e-3  # deliberately coarser\n"
        )
        cfg = load_config(path=str(path))
        assert cfg.preset == "relax-small-mass"
        assert cfg.dt == 3e-3, "file key must not be clobbered by the preset"
        assert cfg.lx == 4.0, "untouched keys still get the preset default"

    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[time]\ndt = 3e-3\n[grid]\nnx = 48\n")
        cfg = load_config(path=str(path), overrides=["time.dt=1e-3"])
        assert cfg.dt == 1e-3
        assert cfg.nx == 48

    def test_file_preset_beats_flag_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[initial]\npreset = vortex-charge\n")
        cfg = load_config(path=str(path), preset="relax-small-mass")
        assert cfg.preset == "vortex-charge"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        for text in ("[grid]\nmx = 3\n", "[grid]\nNX = 64\n"):
            path.write_text(text)
            with pytest.raises(ConfigError, match="unknown config key"):
                load_config(path=str(path))
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["grid.mx=3"])

    @pytest.mark.parametrize("source", ["every-key", "readme"])
    def test_file_of_defaults_loads_back(self, source, tmp_path):
        """File keys keep their case (initial.M), so a file spelling out the
        defaults, or README's example of one, loads back to DEFAULTS."""
        if source == "every-key":
            sections = {}
            for (section, key), value in DEFAULTS.items():
                sections.setdefault(section, []).append(f"{key} = {value}\n")
            text = "".join(f"[{section}]\n" + "".join(lines)
                           for section, lines in sections.items())
        else:
            readme = open(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "README.md")).read()
            start = readme.index("```\n[grid]\n") + 4
            text = readme[start:readme.index("```", start)]
        path = tmp_path / "run.cfg"
        path.write_text(text)

        def fields(cfg):
            # Grid2D has no equality of its own; its repr names every parameter
            return {**vars(cfg), "grid": repr(cfg.grid)}

        assert fields(load_config(path=str(path))) == fields(load_config())

    def test_percent_sign_is_literal(self, tmp_path):
        """Config values are read without interpolation, so '%' is kept."""
        path = tmp_path / "run.cfg"
        path.write_text("[output]\ndir = out%x\n")
        assert load_config(path=str(path)).outdir == "out%x"

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_config(overrides=["grid.nx=three"])

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["time.dt"])
        with pytest.raises(ConfigError):
            load_config(overrides=["dt=1e-3"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path="/nonexistent/run.cfg")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_config(preset="deluxe")

    def test_validation_catches_bad_numbers(self):
        for bad in ("time.dt=0", "time.t_max=-1", "time.cfl_safety=1.5",
                    "initial.M=0", "output.record_every=0",
                    "output.snapshot_every=-1", "tolerances.pb=0",
                    "grid.nx=1", "tolerances.pb=nan", "time.t_max=nan",
                    "initial.M=nan", "initial.M=inf", "initial.amplitude=nan",
                    "time.dt=nan"):
            with pytest.raises(ConfigError):
                load_config(overrides=[bad])

    def test_presets_listing(self):
        got = presets()
        assert got == sorted(got)
        assert got == ["near-equilibrium", "relax-small-mass",
                       "symmetric-null", "vortex-charge"]


class TestInitialStates:
    @pytest.mark.parametrize("preset", ["symmetric-null", "relax-small-mass",
                                        "vortex-charge", "near-equilibrium"])
    def test_masses_and_positivity(self, preset):
        cfg = small(preset)
        _, st = setup(cfg)
        assert integrate(st.v) == pytest.approx(cfg.M, rel=1e-12), preset
        assert integrate(st.w) == pytest.approx(cfg.N, rel=1e-12), preset
        assert st.v.data.min() >= 0.0 and st.w.data.min() >= 0.0, preset
        assert st.t == 0.0

    def test_vortex_velocity_is_divergence_free(self):
        cfg = small("vortex-charge")
        st = build_initial_state(cfg)
        assert lp_norm(div_from_faces(st.u), np.inf) <= 1e-10
        st.u.assert_no_slip()
        assert st.u.max_speed() > 0.0

    def test_other_presets_start_at_rest(self):
        for preset in ("symmetric-null", "relax-small-mass", "near-equilibrium"):
            _, st = setup(small(preset))
            assert st.u.max_speed() == 0.0, preset

    def test_near_equilibrium_zero_eps_is_stationary(self):
        cfg = small("near-equilibrium", "initial.eps=0.0")
        s = solve_pb(cfg.M, cfg.N, cfg.grid)
        st = build_initial_state(cfg, s)
        assert np.allclose(st.v.data, s.v.data, rtol=0, atol=1e-14)
        assert np.allclose(st.w.data, s.w.data, rtol=0, atol=1e-14)
        assert np.abs(st.phi.data - s.phi.data).max() <= 1e-6

    def test_charge_files_round_trip(self, tmp_path):
        cfg0 = small("relax-small-mass")
        ref = build_initial_state(cfg0)
        vp, wp = str(tmp_path / "v.txt"), str(tmp_path / "w.txt")
        save_matrix(vp, ref.v.data)
        save_matrix(wp, ref.w.data)
        cfg = small("relax-small-mass", f"initial.v_file={vp}",
                    f"initial.w_file={wp}")
        st = build_initial_state(cfg)
        assert np.array_equal(st.v.data, ref.v.data), "file round trip must be exact"
        assert np.array_equal(st.w.data, ref.w.data)

    def test_charge_files_must_carry_the_configured_masses(self, tmp_path):
        """A file whose mass differs from initial.M or initial.N, or is zero,
        is a ConfigError naming both masses; within rounding it loads."""
        vp, wp, zp = (str(tmp_path / f"{name}.txt") for name in "vwz")
        save_matrix(vp, np.full((16, 16), 0.1))
        save_matrix(wp, np.full((16, 16), 0.2))
        save_matrix(zp, np.zeros((16, 16)))
        files = (f"initial.v_file={vp}", f"initial.w_file={wp}")
        with pytest.raises(ConfigError, match=r"initial.w_file holds mass 0.2.*initial.N is 0.1"):
            build_initial_state(small("symmetric-null", *files))
        st = build_initial_state(small("symmetric-null", *files, "initial.N=0.2"))
        assert integrate(st.w) == pytest.approx(0.2, rel=1e-15)
        cfg = small("symmetric-null", f"initial.v_file={zp}", f"initial.w_file={wp}",
                    "initial.N=0.2")
        with pytest.raises(ConfigError, match="initial.v_file holds zero mass"):
            build_initial_state(cfg)

    def test_charge_files_must_come_together(self, tmp_path):
        vp = str(tmp_path / "v.txt")
        save_matrix(vp, np.ones((16, 16)))
        cfg = small("symmetric-null", f"initial.v_file={vp}")
        with pytest.raises(ConfigError, match="together"):
            build_initial_state(cfg)

    def test_negative_charge_file_rejected(self, tmp_path):
        """Negative, misshapen (3x5 on 16^2), NaN-holding and missing charge
        files all end as ConfigError, never a bare ValueError or
        FileNotFoundError."""
        nan = np.ones((16, 16))
        nan[4, 7] = np.nan
        cases = [("negative", -np.ones((16, 16))), ("charge file", np.ones((3, 5))),
                 ("charge file", nan), ("charge file", None)]
        wp = str(tmp_path / "w.txt")
        save_matrix(wp, np.ones((16, 16)))
        for k, (match, bad) in enumerate(cases):
            vp = str(tmp_path / f"v{k}.txt")
            if bad is not None:
                save_matrix(vp, bad)
            cfg = small("symmetric-null", f"initial.v_file={vp}",
                        f"initial.w_file={wp}")
            with pytest.raises(ConfigError, match=match):
                build_initial_state(cfg)

    def test_potential_solves_charge_difference(self):
        from ehd2d import laplacian_matrix
        cfg = small("relax-small-mass")
        st = build_initial_state(cfg)
        g = cfg.grid
        A = laplacian_matrix(g, "dirichlet")
        res = A @ st.phi.data.ravel() - (st.v.data - st.w.data).ravel()
        assert np.sqrt(g.vol * (res ** 2).sum()) <= 1e-8


class TestStep:
    def test_cfl_violation_raised(self):
        cfg = small("vortex-charge", "initial.amplitude=2.0")
        st = build_initial_state(cfg)
        limit = cfl_limit(st)
        with pytest.raises(CflViolation):
            step(st, 10.0 * limit)

    def test_cfl_speed_taken_once_per_step(self, monkeypatch):
        """trajectory sets dt by the CFL limit and step checks dt against it;
        both read the speed the state keeps, so the phi gradient the limit
        needs is taken once per step. A dt above the limit still raises."""
        from ehd2d import sim
        cfg = small("vortex-charge", "initial.amplitude=20", "time.dt=0.05")
        _, st = setup(cfg)
        calls = _record_calls(monkeypatch, sim, "grad_to_faces")
        dts = []
        for nstep, dt, st, _ in trajectory(st, cfg):
            dts.append(dt)
            if nstep == 10:
                break
        assert len(calls) == 10
        assert max(dts) < cfg.dt, "test needs a binding limit"
        limit = cfl_limit(st, cfg.cfl_safety)
        speed = max(st.u.max_speed(), sim.grad_to_faces(st.phi).max_speed())
        assert limit == cfg.cfl_safety * min(cfg.grid.hx, cfg.grid.hy) / speed
        with pytest.raises(CflViolation):
            step(st, 2.0 * limit, cfl_safety=cfg.cfl_safety)

    def test_uniform_neutral_state_is_fixed(self):
        cfg = small("symmetric-null")
        st = build_initial_state(cfg)
        dens = st.v.data[0, 0]
        for _ in range(3):
            st = step(st, 1e-3)
        assert np.abs(st.v.data - dens).max() <= 1e-13
        assert np.abs(st.w.data - dens).max() <= 1e-13
        assert lp_norm(st.phi, np.inf) <= 1e-12
        assert st.u.max_speed() <= 1e-14
        assert st.t == pytest.approx(3e-3)

    def test_equilibrium_state_is_fixed(self):
        cfg = small("near-equilibrium", "grid.nx=24", "grid.ny=24",
                    "initial.eps=0.0")
        s = solve_pb(cfg.M, cfg.N, cfg.grid)
        st = embed_stationary(s)
        for _ in range(5):
            st = step(st, 2e-3)
        assert np.abs(st.v.data - s.v.data).max() <= 1e-10
        assert np.abs(st.w.data - s.w.data).max() <= 1e-10
        assert st.u.max_speed() <= 1e-12

    def test_step_preserves_mass_and_positivity(self):
        cfg = small("vortex-charge")
        st = build_initial_state(cfg)
        m0, n0 = integrate(st.v), integrate(st.w)
        for _ in range(5):
            st = step(st, 1e-3)
            assert st.v.data.min() >= 0.0 and st.w.data.min() >= 0.0
        assert integrate(st.v) == pytest.approx(m0, rel=1e-13)
        assert integrate(st.w) == pytest.approx(n0, rel=1e-13)


def _record_calls(monkeypatch, module, name):
    """Replace module.name by a pass-through that logs each call's args."""
    calls = []
    inner = getattr(module, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def _assert_matrices_like_savetxt(out, calls):
    """Every matrix file under out was written by one of the recorded
    save_matrix calls, and holds what np.savetxt writes for its contents."""
    files = sorted(p for p in out.rglob("*.txt") if p.name != "metadata.txt")
    assert sorted(os.fspath(args[0]) for args in calls) == [os.fspath(p) for p in files]
    for path in files:
        ref = path.with_suffix(".ref")
        np.savetxt(ref, load_matrix(path), fmt="%.17g", delimiter=" ")
        assert path.read_bytes() == ref.read_bytes(), path


class TestHookContract:
    """The module-level names a profiler or benchmark wraps stay on the
    call path: run() advances through sim.step, solve_pb factors through
    stationary.splu, nothing else factors on the way, and every name
    benchmark/spans.py wraps resolves."""

    def test_run_calls_step_by_name_once_per_step(self, tmp_path, monkeypatch):
        from ehd2d import sim
        calls = _record_calls(monkeypatch, sim, "step")
        res = run(small("relax-small-mass", f"output.dir={tmp_path / 'out'}"))
        assert len(calls) == 5
        assert sum(args[1] for args in calls) == pytest.approx(res.state.t, rel=1e-12)

    def test_solve_pb_factors_once_per_newton_iteration(self, monkeypatch):
        from ehd2d import Grid2D, poisson, stationary
        newton = _record_calls(monkeypatch, stationary, "splu")
        poisson_lu = _record_calls(monkeypatch, poisson, "splu")
        s = solve_pb(0.05, 0.1, Grid2D(23, 19, 3.0, 2.0))
        assert s.iterations >= 2
        assert len(newton) == s.iterations
        assert poisson_lu == []

    @pytest.mark.parametrize("n, lx, ly", [((23, 19), 3.0, 2.0), ((24, 24), 3.0, 3.0)])
    def test_solve_pb_assembles_the_newton_matrix_once(self, monkeypatch, n, lx, ly):
        """B is assembled once per solve, on the quarter of a rectangular
        grid or the eighth of a square one; each Newton iteration only
        writes its diagonal before the factorization."""
        from ehd2d import Grid2D, stationary
        assembled = _record_calls(monkeypatch, stationary, "_newton_matrix")
        newton = _record_calls(monkeypatch, stationary, "splu")
        g = Grid2D(*n, lx, ly)
        s = solve_pb(0.05, 0.1, g)
        assert s.iterations >= 2
        assert len(assembled) == 1 and assembled[0][0] is g
        assert assembled[0][1].square == (lx == ly)
        q = 12 * 13 // 2 if lx == ly else 12 * 10
        assert len(newton) == s.iterations
        assert all(args[0].shape == (q, q) for args in newton)

    def test_cfl_run_makes_no_viscous_factorization(self, tmp_path, monkeypatch):
        """A CFL-limited run sets a new dt each step; the viscous step, the
        projection and the potential are transform solves, so no dt ever
        costs a factorization in fluid or poisson."""
        from ehd2d import fluid, poisson, sim
        calls = _record_calls(monkeypatch, sim, "step")
        viscous = _record_calls(monkeypatch, fluid, "splu")
        poisson_lu = _record_calls(monkeypatch, poisson, "splu")
        cfg = small("vortex-charge", "initial.amplitude=20", "time.dt=0.05",
                    "time.t_max=2e-3", f"output.dir={tmp_path / 'out'}")
        run(cfg, write_outputs=False)
        assert len({args[1] for args in calls}) > 1, "test needs more than one distinct dt"
        assert viscous == []
        assert poisson_lu == []

    def test_cfl_run_makes_no_transport_factorization(self, tmp_path, monkeypatch):
        """The charge step solves tridiagonal sweeps; no step, whatever its
        dt, factors a transport matrix."""
        from ehd2d import sim, transport
        calls = _record_calls(monkeypatch, sim, "step")
        lu = _record_calls(monkeypatch, transport, "splu")
        cfg = small("vortex-charge", "initial.amplitude=20", "time.dt=0.05",
                    "time.t_max=2e-3", f"output.dir={tmp_path / 'out'}")
        run(cfg, write_outputs=False)
        assert len({args[1] for args in calls}) > 1, "test needs more than one distinct dt"
        assert lu == []

    def test_run_writes_every_matrix_through_save_matrix(self, tmp_path, monkeypatch):
        """Snapshots go through sim.save_matrix and stationary/ through
        stationary.save_matrix, once per file, and each file holds the
        bytes np.savetxt writes for the matrix it reloads to."""
        from ehd2d import sim, stationary
        snaps = _record_calls(monkeypatch, sim, "save_matrix")
        stat = _record_calls(monkeypatch, stationary, "save_matrix")
        out = tmp_path / "out"
        run(small("vortex-charge", "output.snapshot_every=2", f"output.dir={out}"))
        assert len(snaps) == 6 * 4 and len(stat) == 3
        _assert_matrices_like_savetxt(out, snaps + stat)

    def test_stationary_command_writes_through_save_matrix(self, tmp_path, monkeypatch):
        from ehd2d import cli, sim, stationary
        snaps = _record_calls(monkeypatch, sim, "save_matrix")
        stat = _record_calls(monkeypatch, stationary, "save_matrix")
        out = tmp_path / "stat"
        assert cli.main(["stationary", "--quiet", "--preset", "relax-small-mass",
                         "--set", "grid.nx=32", "--set", "grid.ny=32", "--out", str(out)]) == 0
        assert snaps == [] and len(stat) == 3
        _assert_matrices_like_savetxt(out, stat)

    def test_mirrored_rows_are_formatted_once(self, tmp_path, monkeypatch):
        """save_matrix formats only the first half of the rows of a matrix
        whose rows mirror bit for bit, and only the first half of each row
        when every formatted row reads the same bits backwards: `ehd2d
        stationary` at 32^2 hands _format_block 16 x 16 of the 32 x 32
        values of each of its three files. The velocity snapshot ux of a
        vortex run mirrors neither way, and every value of it is
        formatted."""
        from ehd2d import cli, grid, sim
        formatted = []
        inner = grid._format_block

        def recorded(x):
            formatted.append(x.size)
            return inner(x)

        monkeypatch.setattr(grid, "_format_block", recorded)
        assert cli.main(["stationary", "--quiet", "--preset", "relax-small-mass",
                         "--set", "grid.nx=32", "--set", "grid.ny=32",
                         "--out", str(tmp_path / "stat")]) == 0
        assert sum(formatted) == 3 * 16 * 16

        per_file = {}

        def save(path, data):
            formatted.clear()
            grid.save_matrix(path, data)
            per_file[os.path.basename(path)] = (np.shape(data), sum(formatted))

        monkeypatch.setattr(sim, "save_matrix", save)
        run(small("vortex-charge", f"output.dir={tmp_path / 'run'}"))
        shape, count = per_file["ux_000005.txt"]
        assert shape == (16, 17) and count == 16 * 17
        ux = load_matrix(tmp_path / "run" / "snapshots" / "ux_000005.txt")
        assert not np.array_equal(ux, ux[::-1])
        assert not np.array_equal(ux, ux[:, ::-1])

    def test_benchmark_entry_points_resolve(self):
        """Every name the benchmark's traced pass wraps exists and is
        callable, and its per-layer metrics are the ones BENCHMARK.json
        declares; a missing name would silently drop metrics from a run."""
        import importlib
        import importlib.util
        import json

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "benchmark_spans", os.path.join(root, "benchmark", "spans.py"))
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        unresolved = [
            f"{module}.{attr}" for module, attr, _ in spans.ENTRY_POINTS
            if not callable(getattr(importlib.import_module(f"ehd2d.{module}"), attr, None))
        ]
        assert unresolved == []
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = [m["name"] for m in json.load(fh)["per_layer"]]
        assert sorted(spans.UNITS) == sorted(declared)

    def test_traced_benchmark_run_reports_every_layer(self, tmp_path):
        """The traced pass of the benchmark's worker, run as the benchmark
        runs it: every entry point resolves, no metric is left out, every
        output check passes, and the layers are the per-layer metrics
        BENCHMARK.json declares apart from those run.py computes itself."""
        import json
        import subprocess
        import sys

        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, os.path.join(root, "benchmark", "worker.py"),
             "--workload", "vortex-cfl-64", "--trace", "1", "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["missing"] == [] and result["omitted"] == []
        assert [c for c in result["checks"] if not c[1]] == []
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = {m["name"] for m in json.load(fh)["per_layer"]}
        declared -= {"sim.step.ms_p50", "sim.step.ms_p90", "trace.overhead_s"}
        assert set(result["layers"]) == declared


class TestRun:
    def test_solver_error_names_step_t_and_dt(self, monkeypatch):
        """A solver failure inside run() keeps its class and says at which
        step, time and dt it happened."""
        from ehd2d import sim
        calls = []
        inner = sim.step_charges

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise NonConvergence(1, 2.5e-3, "charge transport solve")
            return inner(*args)

        monkeypatch.setattr(sim, "step_charges", failing)
        with pytest.raises(NonConvergence) as info:
            run(small("relax-small-mass"), write_outputs=False)
        assert str(info.value) == (
            "step 3 (t = 0.002, dt = 0.001): charge transport solve did not "
            "converge after 1 iterations (residual 2.500e-03)"
        )

    def test_failed_run_keeps_its_rows(self, tmp_path, capsys, monkeypatch):
        """A SolverError on the third step still leaves diagnostics.csv with
        the header and the rows of t = 0 and of steps 1 and 2, each equal
        to the unforced run's; the CLI exits 2 with one error line."""
        from ehd2d import cli, sim
        argv = ["run", "--quiet", "--preset", "vortex-charge", "--set", "grid.nx=16",
                "--set", "grid.ny=16", "--set", "time.t_max=5e-3",
                "--set", "output.record_every=1"]
        assert cli.main(argv + ["--out", str(tmp_path / "whole")]) == 0
        whole = (tmp_path / "whole" / "diagnostics.csv").read_text().splitlines()
        calls = []
        inner = sim.step

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise NonConvergence(1, 2.5e-3, "charge transport solve")
            return inner(*args, **kwargs)

        monkeypatch.setattr(sim, "step", failing)
        capsys.readouterr()
        assert cli.main(argv + ["--out", str(tmp_path / "failed")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("solver error: step 3 ")
        failed = (tmp_path / "failed" / "diagnostics.csv").read_text().splitlines()
        assert len(whole) == 7
        assert failed == whole[:4]

    def test_zero_horizon_records_nothing(self, tmp_path):
        cfg = small("symmetric-null", "time.t_max=0.0",
                    f"output.dir={tmp_path / 'out'}")
        res = run(cfg)
        assert res.reports == []
        assert res.snapshots == []
        with open(res.csv_path) as fh:
            assert fh.read() == csv_header() + "\n"
        assert os.path.isdir(os.path.join(res.outdir, "stationary"))

    def test_record_cadence(self, tmp_path):
        cfg = small("relax-small-mass", "time.dt=1e-3", "time.t_max=8e-3",
                    "output.record_every=2", f"output.dir={tmp_path / 'out'}")
        res = run(cfg)
        times = [r.t for r in res.reports]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(8e-3, rel=1e-9)
        assert len(times) == 5, f"expected records at steps 0,2,4,6,8: {times}"
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_snapshot_layout(self, tmp_path):
        out = tmp_path / "out"
        cfg = small("relax-small-mass", "time.dt=1e-3", "time.t_max=8e-3",
                    "output.snapshot_every=3", f"output.dir={out}")
        res = run(cfg)
        names = sorted(os.path.basename(p) for p in res.snapshots)
        indices = sorted({n.split("_")[-1].split(".")[0] for n in names})
        assert indices == ["000000", "000003", "000006", "000008"]
        for field in ("v", "w", "phi", "p", "ux", "uy"):
            assert f"{field}_000000.txt" in names, f"missing initial {field}"
        for p in res.snapshots:
            assert os.path.exists(p)

    def test_snapshots_default_to_endpoints(self, tmp_path):
        cfg = small("relax-small-mass", "time.t_max=4e-3",
                    f"output.dir={tmp_path / 'out'}")
        res = run(cfg)
        indices = sorted({os.path.basename(p).split("_")[-1].split(".")[0]
                          for p in res.snapshots})
        assert indices == ["000000", "000004"]

    def test_csv_is_bit_reproducible(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            cfg = small("vortex-charge", f"output.dir={tmp_path / name}")
            res = run(cfg)
            with open(res.csv_path, "rb") as fh:
                blobs.append(fh.read())
        assert blobs[0] == blobs[1], "identical configs must give identical bytes"

    def test_csv_matches_reports(self, tmp_path):
        cfg = small("vortex-charge", f"output.dir={tmp_path / 'out'}")
        res = run(cfg)
        with open(res.csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == csv_header()
        assert len(lines) == 1 + len(res.reports)
        first = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(first["t"]) == res.reports[0].t
        assert float(first["W"]) == res.reports[0].W

    def test_no_outputs_mode_writes_nothing(self, tmp_path):
        cfg = small("symmetric-null", "time.t_max=2e-3",
                    f"output.dir={tmp_path / 'none'}")
        res = run(cfg, write_outputs=False)
        assert res.csv_path is None and res.outdir is None
        assert not os.path.exists(tmp_path / "none")
        assert len(res.reports) >= 2

    def test_large_mass_warns(self, tmp_path):
        cfg = small("symmetric-null", "time.t_max=0.0",
                    "initial.rho0_warn=0.05", f"output.dir={tmp_path / 'out'}")
        with pytest.warns(UserWarning, match="small-data"):
            run(cfg)

    @pytest.mark.parametrize("preset", ["relax-small-mass", "vortex-charge"])
    def test_large_mass_run_stays_clean(self, preset):
        """Past rho0_warn the small-data theory says nothing, but the
        scheme's structure still holds: finite reports, W falling at every
        record and exact masses."""
        cfg = load_config(preset=preset, overrides=[
            "grid.nx=32", "grid.ny=32", "initial.M=30", "initial.N=40",
            "time.t_max=0.05", "output.record_every=1"])
        with pytest.warns(UserWarning, match="small-data"):
            res = run(cfg, write_outputs=False)
        assert len(res.reports) > 2
        first = res.reports[0]
        for rep in res.reports:
            assert all(np.isfinite(getattr(rep, c)) for c in CSV_COLUMNS), csv_row(rep)
            assert rep.mass_v == pytest.approx(first.mass_v, rel=1e-12)
            assert rep.mass_w == pytest.approx(first.mass_w, rel=1e-12)
        ws = [r.W for r in res.reports]
        assert all(b < a for a, b in zip(ws, ws[1:])), ws

    def test_adaptive_dt_respects_cfl(self, tmp_path):
        cfg = small("vortex-charge", "initial.amplitude=2.0", "time.dt=0.05",
                    "time.t_max=0.02", f"output.dir={tmp_path / 'out'}")
        st0 = build_initial_state(cfg)
        assert cfl_limit(st0, cfg.cfl_safety) < cfg.dt, "test needs a binding limit"
        res = run(cfg)
        assert res.state.t == pytest.approx(0.02, rel=1e-9)
        assert len(res.reports) > 2, "dt must have been clamped below time.dt"

    def test_energy_never_increases(self, tmp_path):
        cfg = small("relax-small-mass", "time.t_max=0.01",
                    f"output.dir={tmp_path / 'out'}")
        res = run(cfg)
        ws = [r.W for r in res.reports]
        assert all(b <= a + 1e-12 for a, b in zip(ws, ws[1:])), ws
