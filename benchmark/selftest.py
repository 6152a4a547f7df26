"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Runs every workload at a small size through the same code path as the
benchmark, requires every check to pass on that output, then corrupts one
thing at a time (a mass nudged by 1e-9, one negative cell, a divergence
bump, a perturbed potential, ...) and requires the check that guards it to
fail. Exit code 0 when every check passes on the good output and trips on
its corruption.
"""

import copy
import os
import shutil
import sys

import checks
import worker


def _raise_last_w(inputs):
    lines = inputs["csv_text"].splitlines()
    before = float(lines[-2].split(",")[checks.W_COLUMN])
    cells = lines[-1].split(",")
    cells[checks.W_COLUMN] = repr(before + 1e-6)
    lines[-1] = ",".join(cells)
    inputs["csv_text"] = "\n".join(lines) + "\n"


def _drop_last_row(inputs):
    inputs["csv_text"] = "\n".join(inputs["csv_text"].splitlines()[:-1]) + "\n"


def _edit(key, index, fn):
    """Corruption replacing array[index] (the whole array for None) by fn of it."""
    def corrupt(inputs):
        a = (inputs["fields"] if "fields" in inputs else inputs)[key]
        where = Ellipsis if index is None else index
        a[where] = fn(a[where])
    return corrupt


def _dt_over_cfl(inputs):
    run = inputs["run"]
    run["dts"][0] = 2.0 * run["cfl"][0]


# check name -> (what is corrupted, corruption)
STEPPING = {
    "masses": ("v scaled by 1 + 1e-9", _edit("v", None, lambda x: x * (1.0 + 1e-9))),
    "nonnegative": ("one w cell set to -1e-9", _edit("w", (3, 4), lambda x: -1e-9)),
    "divergence": ("one interior ux face bumped by 1e-6", _edit("ux", (5, 6), lambda x: x + 1e-6)),
    "poisson": ("one phi cell bumped by 1e-6", _edit("phi", (4, 4), lambda x: x + 1e-6)),
    "csv_layout": ("last diagnostics row dropped", _drop_last_row),
    "energy_nonincreasing": ("last W set 1e-6 above the row before", _raise_last_w),
    "cfl": ("first dt set to twice its CFL bound", _dt_over_cfl),
}
STATIONARY = {
    "pb_residual": ("one phi cell bumped by 1e-6", _edit("phi", (7, 9), lambda x: x + 1e-6)),
    "masses": ("v scaled by 1 + 1e-9", _edit("v", None, lambda x: x * (1.0 + 1e-9))),
    "maxwellian": ("one v cell scaled by 1 + 1e-8", _edit("v", (2, 2), lambda x: x * (1.0 + 1e-8))),
    "potential_sign": ("one phi cell set to -1e-6", _edit("phi", (0, 0), lambda x: -1e-6)),
}


def main():
    program = worker.import_program()
    outbase = os.path.join(worker.HERE, "out", "selftest")
    failures = 0
    for name, spec in worker.WORKLOADS.items():
        outdir = os.path.join(outbase, name)
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            res = worker.run_operation(name, outdir, program,
                                       extra_sets=spec["small"], keep_inputs=True)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)
        if res["exit_code"] != 0:
            print(f"FAIL {name}: small run failed ({res['exit_code']}, {res['error']})")
            failures += 1
            continue
        inputs = res["inputs"]
        run_checks = checks.stepping if spec["command"] == "run" else checks.stationary
        table = STEPPING if spec["command"] == "run" else STATIONARY
        for check, ok, detail in res["checks"]:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {check} holds on the good output"
                  + ("" if ok else f" ({detail})"))
            failures += not ok
        for check, (what, corrupt) in table.items():
            bad = copy.deepcopy(inputs)
            corrupt(bad)
            verdict = {c: ok for c, ok, _ in run_checks(**bad)}
            tripped = verdict.get(check) is False
            print(f"{'PASS' if tripped else 'FAIL'} {name}: {check} trips on {what}")
            failures += not tripped
    print(f"{failures} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
