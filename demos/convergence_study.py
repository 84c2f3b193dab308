"""Self-convergence orders in space and time, desk scale.

Halving a discretization parameter across three runs and comparing the
solution differences on the shared particles gives the observed order

    p = log2( sum |u0 - u1| / sum |u1 - u2| )

without needing the exact solution.  Spatial refinement keeps the time step
fixed (its error cancels in the differences); temporal refinement reuses one
grid.  Expected: 2.0 in space (second-order mollifier), 1.0/2.0 in time for
forward Euler / explicit midpoint.

Run:  python demos/convergence_study.py
"""

from fracdiff import (FractionalOrder, IntegratorSpec, RKOrder, SchemeKind,
                      characteristic_width, green_function, init_uniform,
                      integrate, self_convergence_order)

order = FractionalOrder.from_beta(0.5)
r_alpha = characteristic_width(order)
D = 20.0 * 1.5 ** order.gamma * r_alpha


def make_field(n):
    return init_uniform(D, n, order, 2.0, lambda x: green_function(order, x, 0.5))


print("spatial self-convergence (nested grids 2001 -> 4001 -> 8001)")
for kind in (SchemeKind.DD, SchemeKind.KPSE, SchemeKind.FPSE):
    fields, hs = [], []
    for lvl in range(3):
        n = 2000 * 2 ** lvl + 1
        f0 = make_field(n)
        fields.append(integrate(f0, kind, IntegratorSpec(RKOrder.RK1, 1e-4, 0.5, 0.52)))
        hs.append(f0.h)
    p = self_convergence_order(fields, hs)
    note = ""
    if kind is SchemeKind.FPSE:
        note = ("  <- boundary layer: on this narrow domain the one-sided "
                "stencils at +-D do not refine; the interior alone converges "
                "at 2.0")
    print(f"  {kind.value:>5}: p = {p:.3f}{note}")

print("\ntemporal self-convergence (dt = 2e-2 -> 1e-2 -> 5e-3, N = 2001)")
f0 = make_field(2001)
for kind in (SchemeKind.DD, SchemeKind.FPSE):
    for rk in (RKOrder.RK1, RKOrder.RK2):
        fields, dts = [], []
        for dt in (2e-2, 1e-2, 5e-3):
            fields.append(integrate(f0, kind, IntegratorSpec(rk, dt, 0.5, 1.5)))
            dts.append(dt)
        p = self_convergence_order(fields, dts)
        print(f"  {kind.value:>5} {rk.name}: p = {p:.3f}")
