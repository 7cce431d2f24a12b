"""Wave-function conventions and nodal structure.

Run:  python3 demos/03_wavefunctions_and_nodes.py

The closed-form solution states one pair of Jacobi exponents ('literal'),
its own weight function implies another ('weight'), and the standard
Rodrigues construction gives a third ('orthodox').  All three share the
same envelope, but only the orthodox pair produces the n interior nodes a
bound eigenfunction must have, here refereed by the grid solver's
eigenvectors.  Emit plot data with `hyiqp figure 3 ... 9`.
"""

import numpy as np

from hyiqp import (PAPER, OracleConfig, PotentialParams, get_molecule,
                   solve_matrix, wavefunction)
from hyiqp.oracle import count_sign_changes

h2 = get_molecule("H2")
p = PotentialParams.from_molecule(h2, v0=0.0)
r = np.linspace(1e-3, 40.0, 40001)

print("sign changes of the H2 radial wave function on (0, 40), l = 0:")
print(f"  {'n':>2} {'literal':>8} {'weight':>8} {'orthodox':>9}")
for n in range(5):
    counts = [count_sign_changes(wavefunction(r, p, h2.mu, n, 0, PAPER,
                                              normalized=False, convention=c))
              for c in ("literal", "weight", "orthodox")]
    print(f"  {n:2d} {counts[0]:8d} {counts[1]:8d} {counts[2]:9d}")

print()
print("grid referee (box spectrum of the exact potential): node counts")
sol = solve_matrix(p, 0, h2.mu, OracleConfig(), 5, PAPER, below_asymptote_only=False)
print("  ", sol.node_counts, " -> the k-th state carries k nodes, as Sturm theory demands")
print()
print("normalization is exact Gauss-Jacobi quadrature, the same contract for every convention:")
for conv in ("literal", "weight", "orthodox"):
    psi = wavefunction(np.linspace(1e-6, 250.0, 400001), p, h2.mu, 2, 0, PAPER,
                       normalized=True, convention=conv)
    total = np.trapezoid(psi * psi, np.linspace(1e-6, 250.0, 400001))
    print(f"  {conv:9s}: integral of psi^2 = {total:.9f}")
