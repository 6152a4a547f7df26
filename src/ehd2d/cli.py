"""Command-line front end.

Subcommands:

    run        full simulation, writes diagnostics.csv + snapshots + stationary/
    stationary Poisson-Boltzmann solve only, writes solution + metadata
    check      PASS/FAIL lines of the property suite on the initial state and 10 steps
    presets    list the built-in scenario generators

Exit codes: 0 success, 1 usage/config error, 2 solver failure, 3 property
check failure. Flags: --config PATH, --out DIR, --set section.key=value
(repeatable), --preset NAME, --quiet.
"""

import argparse
import itertools
import sys

import numpy as np

from .errors import ConfigError, SolverError
from .grid import div_from_faces, integrate, lp_norm
from . import sim
from .diagnostics import ck_constant, energy_report
from .fluid import projection_bound
from .stationary import export_stationary, sinh_form_check, solve_pb

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

# steps of sim.trajectory that check's burst takes, whatever time.t_max is
BURST = 10


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1 instead of 2."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="ehd2d", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--config", metavar="PATH", default=None,
                       help="INI-style config file")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (overrides output.dir)")
        p.add_argument("--set", metavar="KEY=VALUE", action="append",
                       dest="overrides", default=[],
                       help="override a config entry, e.g. grid.nx=128")
        p.add_argument("--preset", metavar="NAME", default=None,
                       help="scenario preset supplying defaults")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

    common(sub.add_parser("run", help="run a full simulation"))
    common(sub.add_parser("stationary", help="solve the stationary problem only"))
    common(sub.add_parser("check", help="run the property suite on a preset"))
    sub.add_parser("presets", help="list available presets")
    return parser


def _load(args):
    out = [] if args.out is None else [f"output.dir={args.out}"]
    return sim.load_config(path=args.config, preset=args.preset,
                           overrides=args.overrides + out)


def _cmd_run(args):
    config = _load(args)
    result = sim.run(config)
    if not args.quiet:
        last = result.reports[-1] if result.reports else None
        print(f"wrote {result.csv_path} ({len(result.reports)} records)")
        if last is not None:
            print(f"final t = {last.t:.6g}  W = {last.W:.9g}  W_rel = {last.W_rel:.6g}")
    return EXIT_OK


def _cmd_stationary(args):
    config = _load(args)
    s = solve_pb(config.M, config.N, config.grid)
    paths = export_stationary(s, config.outdir)
    if not args.quiet:
        for k, (res, step, halvings) in enumerate(s.history):
            print(f"newton {k}: residual {res:.3e}  step {step:g}  halvings {halvings}")
        print(f"converged in {s.iterations} iterations, residual {s.residual:.3e}")
        print(f"max |phi| = {float(np.abs(s.phi.data).max()):.3e}")
        print(f"sinh-form residual = {sinh_form_check(s):.3e}")
        print(f"wrote {paths['metadata']}")
    return EXIT_OK


def _cmd_presets(_args):
    for name in sim.presets():
        description, _ = sim.PRESETS[name]
        print(f"{name}: {description}")
    return EXIT_OK


def _cmd_check(args):
    """Property suite: the initial state of sim.setup, then BURST steps of sim.trajectory."""
    config = _load(args)
    failures = []

    def report(name, ok, detail=""):
        tag = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if (detail and not ok) else ""
        print(f"{tag} {name}{suffix}")
        if not ok:
            failures.append(name)

    equilibrium, state = sim.setup(config)
    g = config.grid
    rep0 = energy_report(state, equilibrium)

    mv, mw = rep0.mass_v, rep0.mass_w
    report("initial masses match config",
           abs(mv - config.M) <= sim.MASS_RTOL * config.M
           and abs(mw - config.N) <= sim.MASS_RTOL * config.N,
           f"masses {mv!r}, {mw!r}")
    try:
        state.u.assert_no_slip(0.0)
        report("velocity boundary faces zero", True)
    except ValueError as exc:
        report("velocity boundary faces zero", False, str(exc))
    div0 = lp_norm(div_from_faces(state.u), np.inf)
    report("initial velocity divergence-free", div0 <= projection_bound(state.u, state.p),
           f"max div {div0:.3e}")

    prod = rep0.production
    report("entropy production nonnegative", prod >= 0.0, f"production {prod:.3e}")
    lhs, rhs = rep0.ck_lhs, rep0.W_rel
    c = ck_constant(rep0, config.M, config.N)
    slack = 1e-8 + 4.0 * (g.hx * g.hx + g.hy * g.hy)
    report("Csiszar-Kullback inequality",
           lhs <= c * rhs * (1.0 + 1e-6) + slack,
           f"lhs {lhs:.6e} vs {c:.6g}*rhs {c * rhs:.6e}")

    smv = integrate(equilibrium.v)
    report("stationary masses exact",
           abs(smv - config.M) <= 1e-12 * config.M
           and abs(integrate(equilibrium.w) - config.N) <= 1e-12 * config.N)
    # The potential is signed by the majority species: with Lap phi = v - w
    # and cations distributed along +phi, an anion surplus pushes phi up.
    if config.M <= config.N:
        report("stationary potential signed by anion majority",
               float(equilibrium.phi.data.min()) >= -1e-10,
               f"min phi {float(equilibrium.phi.data.min()):.3e}")
    else:
        report("stationary potential signed by cation majority",
               float(equilibrium.phi.data.max()) <= 1e-10,
               f"max phi {float(equilibrium.phi.data.max()):.3e}")

    # a short burst of steps exercises the dynamic contracts
    w_prev = rep0.W
    ok_mass = ok_pos = ok_w = ok_lady = True
    for _, dt, cur, _ in itertools.islice(sim.trajectory(state, config), BURST):
        rep = energy_report(cur, equilibrium)
        ok_mass &= abs(rep.mass_v - config.M) <= 1e-11 * config.M
        ok_mass &= abs(rep.mass_w - config.N) <= 1e-11 * config.N
        ok_pos &= cur.v.data.min() >= 0.0 and cur.w.data.min() >= 0.0
        ok_w &= rep.W <= w_prev + 1e-6 * dt
        w_prev = rep.W
        ok_lady &= rep.lady_ratio <= 1.05
    report(f"masses conserved over {BURST} steps", ok_mass)
    report(f"charges nonnegative over {BURST} steps", ok_pos)
    report(f"total energy nonincreasing over {BURST} steps", ok_w)
    report("Ladyzhenskaya ratio within bound", ok_lady)

    if failures:
        print(f"{len(failures)} properties failed")
        return EXIT_CHECK
    print("all properties passed")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "stationary":
            return _cmd_stationary(args)
        if args.subcommand == "check":
            return _cmd_check(args)
        if args.subcommand == "presets":
            return _cmd_presets(args)
        raise _UsageError(f"unknown subcommand {args.subcommand!r}")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
