"""The exact combinatorics behind the cumulant method.

The composition sums collapse in exact rational arithmetic (which is why
fluctuations are asymptotically Gaussian), the Gaussian pair integrals give
the limiting variance its value, and the cyclic-product trace formula turns
finite-n cumulants into deterministic linear algebra.
"""

from rnmlab import (bump, dpp_cumulant, default_grid, gaussian_pair_integrals,
                    make_ginibre, s_k, stirling2, variance_prediction,
                    weighted_kernel, zero_sum_identity)

print("exact composition identities (rational arithmetic, no tolerance):")
print(f"{'k':>3} {'zero_sum':>9} {'quadratic_sum':>14}")
for k in range(2, 11):
    print(f"{k:>3} {str(zero_sum_identity(k)):>9} {str(s_k(k)):>14}")
print("Stirling cross-check: S(4,2) =", stirling2(4, 2), " S(6,3) =", stirling2(6, 3))

p = gaussian_pair_integrals()
print("\nGaussian pair integrals (4-D polar quadrature):")
print(f"  same-phase pair      J   = {p.J.real:+.2e}  (exact 0)")
print(f"  conjugate pair       J'  = {p.J_conj.real:+.2e}  (exact 0)")
print(f"  like-oriented cross  L'  = {p.L_same.real:+.2e}  (exact 0)")
print(f"  opposite cross       L'' = {p.L_opposite.real:+.12f}  (exact 1)")

pot = make_ginibre()
g = bump(0.0, 0.5)
g_off = bump(0.3 + 0.2j, 0.5)  # not radial; its support stays in the bulk
v_pred = variance_prediction(g)
print(f"\ntrace-formula cumulants of tr g, limit variance {v_pred:.4f} "
      f"(off-centre: {variance_prediction(g_off):.4f}):")
print(f"{'g':>10} {'n':>5} {'C_1':>10} {'C_2':>10} {'C_3':>12} {'C_4':>12}")
for n in (32, 64, 128):
    kern = weighted_kernel(pot, float(n), n)
    grid = default_grid(pot, float(n), n)
    for label, f in (("centred", g), ("off-centre", g_off)):
        cks = [dpp_cumulant(kern, grid, f, k) for k in (1, 2, 3, 4)]
        print(f"{label:>10} {n:>5} {cks[0]:>10.4f} {cks[1]:>10.4f} "
              f"{cks[2]:>12.2e} {cks[3]:>12.2e}")
print("C_2 climbs to the Dirichlet limit; C_3, C_4 decay (Gaussianity).")
print("The off-centre bump is the field case of the theorem: its moment matrices")
print("come from an angular FFT of g^p on each ring of the polar grid.")
