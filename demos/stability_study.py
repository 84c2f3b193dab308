"""Explicit-Euler stability limits of the three rate schemes.

For fixed particle positions the strength evolution is du/dt = A u, so
forward Euler is stable when dt <= 2/|lambda_min(A)|.  Nondimensionalized as
a = 2 / (|lambda_min| h^alpha), the limit depends only weakly on beta and on
the resolution, which this script shows by sweeping both.  It closes with an
empirical probe: integrating just under and just over the limit.

Run:  python demos/stability_study.py   (about a minute)
"""

from fracdiff import (FractionalOrder, InstabilityError, IntegratorSpec,
                      RKOrder, SchemeKind, characteristic_width, green_function,
                      init_uniform, integrate, power_iteration_min_eig)


def make_field(beta, n, C=20.0):
    order = FractionalOrder.from_beta(beta)
    D = C * 1.5 ** order.gamma * characteristic_width(order)
    return init_uniform(D, n, order, 2.0, lambda x: green_function(order, x, 0.5))


print("stability constant a = 2 / (|lambda_min| h^alpha) at N = 2001")
print(f"{'beta':>5} {'DD':>8} {'FPSE':>8} {'KPSE':>8}")
for beta in (0.1, 0.5, 0.9):
    f = make_field(beta, 2001)
    row = [power_iteration_min_eig(f, k).a_constant
           for k in (SchemeKind.DD, SchemeKind.FPSE, SchemeKind.KPSE)]
    print(f"{beta:5.1f} {row[0]:8.3f} {row[1]:8.3f} {row[2]:8.3f}")
print("(KPSE is the most restrictive; FPSE allows the largest step)")

print("\nconvergence of a with resolution (beta = 0.5, DD):")
for n in (501, 1001, 2001, 4001):
    f = make_field(0.5, n)
    rep = power_iteration_min_eig(f, SchemeKind.DD)
    print(f"  N = {n:5d}: a = {rep.a_constant:.5f}  "
          f"({rep.iterations} power iterations)")

print("\nprobing the boundary (beta = 0.5, KPSE, N = 501):")
f = make_field(0.5, 501, C=10.0)
rep = power_iteration_min_eig(f, SchemeKind.KPSE)
h = f.h
dt_lim = rep.a_constant * h ** 1.5
for factor in (0.9, 1.1):
    dt = factor * dt_lim
    try:
        integrate(f, SchemeKind.KPSE, IntegratorSpec(RKOrder.RK1, dt, 0.5, 0.5 + 500 * dt))
        print(f"  dt = {factor:.1f} x limit: bounded over 500 steps")
    except InstabilityError as exc:
        print(f"  dt = {factor:.1f} x limit: diverged at step {exc.step}")
