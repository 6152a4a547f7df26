"""Output checks, computed with plain numpy apart from the program.

Every check returns (name, ok, detail). The figures come from the files a
run writes (final snapshot, diagnostics.csv, stationary matrices) and from
the step hook's record of dt and the CFL bound; nothing is compared
against a stored copy of earlier output. Each check states a property the
scheme must have: exact mass, positivity, a discretely divergence-free
velocity, a potential that solves its own Poisson equation, a
nonincreasing free energy, and the Maxwellian form of the equilibrium.
"""

import numpy as np

CSV_HEADER = ("t,mass_v,mass_w,kinetic,electric,entropy_v,entropy_w,W,"
              "production,W_rel,L,E1,E2,ck_lhs,lady_ratio")
W_COLUMN = CSV_HEADER.split(",").index("W")


def grid_l2(r, hx, hy):
    return float(np.sqrt(hx * hy * float((r * r).sum())))


def dirichlet_laplacian(f, hx, hy):
    """5-point Laplacian of a cell field, ghost cell = -interior cell."""
    p = np.pad(f, 1)
    p[0, 1:-1] = -f[0, :]
    p[-1, 1:-1] = -f[-1, :]
    p[1:-1, 0] = -f[:, 0]
    p[1:-1, -1] = -f[:, -1]
    return ((p[1:-1, 2:] - 2.0 * f + p[1:-1, :-2]) / (hx * hx)
            + (p[2:, 1:-1] - 2.0 * f + p[:-2, 1:-1]) / (hy * hy))


def cfl_bound(ux, uy, phi, hx, hy, safety):
    """safety * min(h) / max(face speed, interior-face |grad phi|)."""
    speed = max(
        float(np.abs(ux).max()),
        float(np.abs(uy).max()),
        float(np.abs(np.diff(phi, axis=1)).max()) / hx,
        float(np.abs(np.diff(phi, axis=0)).max()) / hy,
    )
    return np.inf if speed == 0.0 else safety * min(hx, hy) / speed


def _masses(v, w, M, N, hx, hy):
    mv = float(v.sum()) * hx * hy
    mw = float(w.sum()) * hx * hy
    ok = abs(mv - M) <= 1e-12 * M and abs(mw - N) <= 1e-12 * N
    return ("masses", ok, f"{mv!r} vs {M!r}, {mw!r} vs {N!r}")


def stepping(fields, csv_text, run):
    """Checks on a time-stepping run.

    fields: final snapshot arrays v, w, phi, ux, uy. run: dict with M, N,
    hx, hy, t_max, record_every, steps, and the per-step lists dts and
    cfl (the bound recomputed before each step).
    """
    v, w, phi = fields["v"], fields["w"], fields["phi"]
    ux, uy = fields["ux"], fields["uy"]
    hx, hy = run["hx"], run["hy"]
    out = [_masses(v, w, run["M"], run["N"], hx, hy)]

    low = min(float(v.min()), float(w.min()))
    out.append(("nonnegative", low >= 0.0, f"min density {low:.3e}"))

    div = (ux[:, 1:] - ux[:, :-1]) / hx + (uy[1:, :] - uy[:-1, :]) / hy
    worst = float(np.abs(div).max())
    out.append(("divergence", worst <= 1e-8, f"max |div u| {worst:.3e}"))

    res = grid_l2(dirichlet_laplacian(phi, hx, hy) - (v - w), hx, hy)
    out.append(("poisson", res <= 1e-8, f"residual {res:.3e}"))

    lines = csv_text.splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    steps, every = run["steps"], run["record_every"]
    want = 1 + steps // every + (1 if steps % every else 0)
    layout = (
        bool(lines) and lines[0] == CSV_HEADER and len(rows) == want
        and all(len(r) == len(CSV_HEADER.split(",")) for r in rows)
        and rows[0][0] == 0.0
        and abs(rows[-1][0] - run["t_max"]) <= 1e-9 * run["t_max"]
    )
    out.append(("csv_layout", layout, f"{len(rows)} rows, expected {want}"))

    rises = [
        (a[0], b[0]) for a, b in zip(rows, rows[1:])
        if b[W_COLUMN] > a[W_COLUMN] + 1e-6 * (b[0] - a[0])
    ]
    out.append(("energy_nonincreasing", not rises, f"W rises over {rises[:3]}"))

    over = [(k, dt, lim) for k, (dt, lim) in enumerate(zip(run["dts"], run["cfl"]))
            if not (0.0 < dt <= lim * (1.0 + 1e-9))]
    out.append(("cfl", not over and len(run["dts"]) == steps,
                f"dt above the CFL bound at {over[:3]}"))
    return out


def stationary(phi, v, w, M, N, hx, hy):
    """Checks on the exported stationary solution."""
    out = []
    res = grid_l2(dirichlet_laplacian(phi, hx, hy) - (v - w), hx, hy)
    out.append(("pb_residual", res <= 1e-9, f"residual {res:.3e}"))
    out.append(_masses(v, w, M, N, hx, hy))
    if min(float(v.min()), float(w.min())) <= 0.0:
        out.append(("maxwellian", False, "nonpositive density"))
    else:
        spread = max(float(np.ptp(np.log(v) - phi)), float(np.ptp(np.log(w) + phi)))
        out.append(("maxwellian", spread <= 1e-9, f"spread {spread:.3e}"))
    # Lap phi = v - w with cations along +phi: an anion surplus lifts phi.
    if M < N:
        low = float(phi.min())
        out.append(("potential_sign", low >= -1e-10, f"min phi {low:.3e}"))
    elif M > N:
        high = float(phi.max())
        out.append(("potential_sign", high <= 1e-10, f"max phi {high:.3e}"))
    return out
