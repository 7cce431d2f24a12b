"""Cross-validating the closed form against the exact-potential grid solver.

Run:  python3 demos/04_oracle_crosscheck.py

The screened well with V0 = 2, alpha = 0.05, mu = 1 (hbar = 1) is exactly
solvable at l = 0, so it anchors the whole verification chain: the matrix
and Numerov methods must agree with each other and with the closed form.
For the real molecules the story is different and worth seeing: at v0 = 0
the exact potential never dips below its asymptote, so the closed-form
"bound states" exist only by virtue of the small-screening surrogate.
"""

from hyiqp import (PAPER, OracleConfig, PotentialParams, energy_hulthen,
                   expectation_numeric, get_molecule, registry, solve_matrix,
                   solve_numerov)

anchor = PotentialParams(v0=2.0, a=0.0, b=0.0, c=0.0, alpha=0.05)
cfg = OracleConfig(r_min=1e-7, r_max=1.1, n_points=20000)

print("screened-well anchor, l = 0:")
sol = solve_matrix(anchor, 0, 1.0, cfg, 3, PAPER)
for n in range(3):
    exact = energy_hulthen(2.0, 0.05, 1.0, n, 0, PAPER)
    rel = (sol.eigenvalues[n] - exact) / abs(exact)
    print(f"  n={n}: closed form {exact:12.6f}   matrix {sol.eigenvalues[n]:12.6f}"
          f"   rel {rel:+.2e}   nodes {sol.node_counts[n]}")

e0 = sol.eigenvalues[0]
num = solve_numerov(anchor, 0, 1.0, cfg, (e0 - 0.02, e0 + 0.02), PAPER)
print(f"  Numerov by node count: {num.energy:.9f} after {num.iterations} bisections; "
      f"matrix-vs-numerov rel {(e0 - num.energy) / abs(num.energy):+.2e}")

print()
print("numerical Hellmann-Feynman, no closed form anywhere:")
h_a = 1e-4
up = solve_matrix(PotentialParams(2.0, +h_a, 0.0, 0.0, 0.05), 0, 1.0, cfg, 1, PAPER)
dn = solve_matrix(PotentialParams(2.0, -h_a, 0.0, 0.0, 0.05), 0, 1.0, cfg, 1, PAPER)
de_da = (up.eigenvalues[0] - dn.eigenvalues[0]) / (2 * h_a)
screened = expectation_numeric(sol, 0, "r_m1_screened")
print(f"  discrete mean <e^-ar / r> = {screened:.6f}")
print(f"  -dE/dA by perturbed re-solve = {-de_da:.6f}")

print()
print("and the molecules at v0 = 0: lowest grid state vs the asymptote C")
for mol in registry().values():
    p = PotentialParams.from_molecule(mol, v0=0.0)
    s = solve_matrix(p, 0, mol.mu, OracleConfig(), 1, PAPER,
                     below_asymptote_only=False)
    verdict = "bound" if s.eigenvalues[0] < mol.c else "NOT bound (box artifact)"
    print(f"  {mol.name:4s}: E0 = {s.eigenvalues[0]:9.5f} vs C = {mol.c:8.5f}  ->  {verdict}")
print("every closed-form level for these constants therefore rests on the")
print("surrogate; the discrepancy reports carry that context.")
