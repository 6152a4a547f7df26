"""One benchmark operation: a workload run in this interpreter, then its checks.

    python3 benchmark/worker.py --workload NAME --out DIR [--trace 0|1]
                                [--trace-file PATH]

run.py starts this script once per operation, so every operation meets cold
factorization caches and its process has its own peak memory. The user-
visible call is the `ehd2d run` or `ehd2d stationary` command line, made
through `ehd2d.cli.main`. The last line of standard output is one JSON
object with the timings, the check results and, when traced, the layer
figures. Exit code 3 means the benchmark itself cannot run here (no
program to import, or an entry point it times is gone).
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import checks
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Fixed presets; nothing here is random. "small" is appended to "sets" by
# the self-test, which needs a valid output in seconds.
WORKLOADS = {
    "vortex-cfl-64": {
        "command": "run",
        "preset": "vortex-charge",
        "sets": ["grid.nx=64", "grid.ny=64", "initial.amplitude=20",
                 "time.t_max=0.01", "output.record_every=1",
                 "output.snapshot_every=50"],
        "small": ["grid.nx=16", "grid.ny=16", "time.t_max=0.01"],
    },
    "stationary-256": {
        "command": "stationary",
        "preset": "relax-small-mass",
        "sets": ["grid.nx=256", "grid.ny=256"],
        "small": ["grid.nx=32", "grid.ny=32"],
    },
}

SNAPSHOT_FIELDS = ("v", "w", "phi", "ux", "uy")
STATIONARY_FIELDS = ("phi_inf", "v_inf", "w_inf")


class HarnessError(Exception):
    """The benchmark cannot measure this checkout."""


def import_program():
    """Import ehd2d from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    try:
        import ehd2d
        from ehd2d import cli, sim, stationary
    except ImportError as exc:
        raise HarnessError(f"cannot import ehd2d from {SRC}: {exc}") from exc
    if not os.path.abspath(ehd2d.__file__).startswith(SRC + os.sep):
        raise HarnessError(f"ehd2d was imported from {ehd2d.__file__}, not {SRC}")
    return cli, sim, stationary


class Marker:
    """Marks each pass of the main loop: the time steps of a run, or the
    Newton factorizations of a stationary solve. Per time step it also keeps
    dt and the CFL bound recomputed from the state the step starts from."""

    def __init__(self, module, attr, cfl_grid=None):
        self.module, self.attr = module, attr
        self.inner = getattr(module, attr, None)
        if not callable(self.inner):
            raise HarnessError(f"entry point {module.__name__}.{attr} is missing")
        self.starts = []
        self.dts = []
        self.cfl = []
        self.cfl_grid = cfl_grid
        setattr(module, attr, self)

    def __call__(self, *args, **kwargs):
        self.starts.append(time.perf_counter())
        if self.cfl_grid is not None:
            state, dt = args[0], args[1]
            hx, hy = self.cfl_grid
            self.dts.append(float(dt))
            self.cfl.append(checks.cfl_bound(
                state.u.ux, state.u.uy, state.phi.data, hx, hy,
                kwargs.get("cfl_safety", 1.0)))
        return self.inner(*args, **kwargs)

    def restore(self):
        setattr(self.module, self.attr, self.inner)


def _load(path):
    return np.loadtxt(path, ndmin=2)


def _newton_iters(path):
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition("=")
            if key.strip() == "iterations":
                return int(value)
    raise ValueError(f"no iterations line in {path}")


def read_outputs(command, outdir, config, marker):
    """The arguments of the checks function for this command's outputs."""
    hx, hy = config.lx / config.nx, config.ly / config.ny
    if command == "stationary":
        phi, v, w = (_load(os.path.join(outdir, f"{f}.txt")) for f in STATIONARY_FIELDS)
        return {"phi": phi, "v": v, "w": w, "M": config.M, "N": config.N,
                "hx": hx, "hy": hy}
    snap = os.path.join(outdir, "snapshots")
    with open(os.path.join(outdir, "diagnostics.csv")) as fh:
        csv_text = fh.read()
    return {
        "fields": {f: _load(os.path.join(snap, f"{f}_{len(marker.starts):06d}.txt"))
                   for f in SNAPSHOT_FIELDS},
        "csv_text": csv_text,
        "run": {"M": config.M, "N": config.N, "hx": hx, "hy": hy,
                "t_max": config.t_max, "record_every": config.record_every,
                "steps": len(marker.starts), "dts": marker.dts, "cfl": marker.cfl},
    }


def run_operation(name, outdir, program, tracer=None, extra_sets=(), keep_inputs=False):
    """Run one workload and check its outputs; returns the result dict.

    keep_inputs adds the checks' arguments under "inputs" (for the self-test).
    """
    cli, sim, stationary = program
    spec = WORKLOADS[name]
    sets = list(spec["sets"]) + list(extra_sets)
    config = sim.load_config(preset=spec["preset"], overrides=sets)
    argv = [spec["command"], "--preset", spec["preset"], "--out", outdir, "--quiet"]
    for item in sets:
        argv += ["--set", item]

    stepping = spec["command"] == "run"
    if stepping:
        marker = Marker(sim, "step", cfl_grid=(config.lx / config.nx, config.ly / config.ny))
    else:
        marker = Marker(stationary, "splu")
    error = None
    t0 = time.perf_counter()
    try:
        code = tracer.root(cli.main, argv) if tracer else cli.main(argv)
    except Exception as exc:  # a traceback out of the CLI is a failed operation
        code, error = None, repr(exc)
    t1 = time.perf_counter()
    marker.restore()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"workload": name, "exit_code": code, "error": error}
    if code != 0:
        return result
    if not marker.starts:
        raise HarnessError(f"{marker.module.__name__}.{marker.attr} was never called")
    result["metrics"] = {
        "run_s": t1 - t0,
        "setup_s": marker.starts[0] - t0,
        "steps_per_s": len(marker.starts) / (t1 - marker.starts[0]),
        "peak_rss_mb": rss_mb,
    }

    meta = os.path.join(outdir, "stationary" if stepping else "", "metadata.txt")
    try:
        inputs = read_outputs(spec["command"], outdir, config, marker)
        result["newton_iters"] = _newton_iters(meta)
    except (OSError, ValueError) as exc:
        result["checks"] = [("outputs_readable", False, repr(exc))]
        return result
    check = checks.stepping if stepping else checks.stationary
    result["checks"] = check(**inputs)
    result["dt_distinct"] = len(set(marker.dts))
    if keep_inputs:
        result["inputs"] = inputs
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args()
    try:
        program = import_program()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install("ehd2d")
        result = run_operation(args.workload, args.out, program, tracer)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    if tracer is not None:
        layers, step_ms, omitted = spans.layer_metrics(tracer)
        layers["stationary.newton_iters"] = result.get("newton_iters", 0)
        layers["sim.dt_distinct"] = result.get("dt_distinct", 0)
        result.update(layers=layers, step_ms=step_ms, omitted=omitted,
                      missing=tracer.missing)
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump(tracer.to_json(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
