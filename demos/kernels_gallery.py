"""Gallery of the radial interaction kernels.

Walks through the kernel zoo behind the particle schemes and saves the curves
to kernels_gallery.png (if matplotlib is available) plus a CSV next to it.

The cast, for fractional order alpha = 1 + beta:

* eta      -- the squared-exponential mollifier the others derive from
* kappa    -- eta convolved with |r|^-beta: a "stretched" mollifier whose
              r^-beta tail is the signature of the fractional operator
* F        -- d(kappa)/dr, the flux kernel (odd, negative for r > 0)
* K        -- -F(r)/r, the strength-exchange kernel (even, positive)
* G^d      -- d2(kappa)/dr2, the direct-differentiation kernel
* E        -- the reduced profile of the fundamental solution, used by the
              Green's-function stepper

Run:  python demos/kernels_gallery.py
"""

import math

import numpy as np

from fracdiff import FractionalOrder, kernel_f, kernel_gd, kernel_k, kernel_kappa, \
    reduced_green


# the mollifier and kappa's tail constant belong to the derivation; no
# scheme evaluates them, so the package does not export them
def eta(r):
    return math.exp(-r * r) / math.sqrt(math.pi)


def c_beta(beta):
    return 1.0 / (2.0 * math.gamma(1.0 - beta) * math.sin(beta * math.pi / 2.0))


r_small = np.linspace(0.0, 6.0, 400)
r_large = np.geomspace(1.0, 100.0, 200)

print("kernel values at a few radii, beta = 0.5 (alpha = 1.5)")
order = FractionalOrder.from_beta(0.5)
hdr = f"{'r':>6} {'eta':>12} {'kappa':>12} {'F':>12} {'K':>12} {'Gd':>12} {'E':>12}"
print(hdr)
for r in (0.0, 0.5, 1.0, 2.0, 5.0):
    print(f"{r:6.2f} {eta(r):12.6f} {kernel_kappa(0.5, r):12.6f} "
          f"{kernel_f(order, r):12.6f} {kernel_k(order, r):12.6f} "
          f"{kernel_gd(order, r):12.6f} {reduced_green(order, r):12.6f}")

# the slow tails are the whole story: kappa ~ c_beta r^-beta, K ~ |F|/r,
# E ~ r^-(1+alpha), while eta is already zero for r > 5
print("\ntail behavior at r = 50:")
print("  kappa * r^beta      =", kernel_kappa(0.5, 50.0) * 50.0 ** 0.5,
      " (c_beta =", c_beta(0.5), ")")
print("  E * r^(1+alpha)     =", reduced_green(order, 50.0) * 50.0 ** 2.5)

rows = []
for beta in (0.1, 0.5, 0.9):
    o = FractionalOrder.from_beta(beta)
    for r in np.concatenate([r_small, r_large]):
        rows.append((beta, r, kernel_gd(o, r), kernel_k(o, r), reduced_green(o, r),
                     kernel_f(o, r), kernel_kappa(beta, r)))

with open("kernels_gallery.csv", "w") as fh:
    fh.write("beta,r,gd,k,e,f,kappa\n")
    for row in rows:
        fh.write(",".join(format(v, ".10g") for v in row) + "\n")
print("\nwrote kernels_gallery.csv")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    fig, axes = plt.subplots(1, 2, figsize=(11, 4))
    for beta, style in ((0.1, "-"), (0.5, "--"), (0.9, ":")):
        o = FractionalOrder.from_beta(beta)
        axes[0].plot(r_small, kernel_gd(o, r_small), "b" + style,
                     label=f"G^d, beta={beta}")
        axes[0].plot(r_small, kernel_k(o, r_small), "r" + style,
                     label=f"K, beta={beta}")
        axes[0].plot(r_small, reduced_green(o, r_small), "g" + style,
                     label=f"E, beta={beta}")
        axes[1].loglog(r_large, np.abs(np.asarray(kernel_gd(o, r_large))), "b" + style)
        axes[1].loglog(r_large, np.asarray(kernel_k(o, r_large)), "r" + style)
    axes[0].set_xlabel("r")
    axes[0].legend(fontsize=7)
    axes[0].set_title("scheme kernels near the origin")
    axes[1].set_xlabel("r")
    axes[1].set_title("algebraic tails (log-log)")
    fig.tight_layout()
    fig.savefig("kernels_gallery.png", dpi=130)
    print("wrote kernels_gallery.png")
