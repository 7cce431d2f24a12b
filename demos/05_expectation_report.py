"""The discrepancy report behind `hyiqp expect` and `hyiqp table`.

Run:  python3 demos/05_expectation_report.py

Every expectation value is computed twice (closed-form derivative vs the
complex-step derivative of the energy code) and set against the bundled
reference table, which the report looks up itself, where one exists.  The dual-path deviation sits at rounding level; the
deviation against the reference tables is large and genuine, which is why
the tables are regenerated with deviation columns instead of being treated
as ground truth (several reference entries are negative where a positive
operator average is required).
"""

from hyiqp import PAPER, expectation_report, get_molecule

h2 = get_molecule("H2")
rows = expectation_report(h2, "T", n_max=3, l_max=1, constants=PAPER)

print("H2 kinetic-energy report (paper mode), n <= 3, l <= 1:")
print(f"  {'n':>2} {'l':>2} {'closed-form':>14} {'complex-step':>14} "
      f"{'reference':>14} {'dev(paths)':>11} {'dev(ref)':>9}")
for r in rows:
    print(f"  {r.n:2d} {r.l:2d} {r.paper_formula:14.8f} {r.machine_derivative:14.8f} "
          f"{r.paper_table:14.8f} {r.dev_pf_md:11.1e} {r.dev_vs_table:9.2f}")

print()
print("the two derivation paths agree to rounding, ~1e-16 (they share no algebra);")
print("the reference column does not reproduce, and the deviation is the")
print("deliverable: `hyiqp table` emits each published table's full grid as CSV.")
print()
print("the exact relation <p^2> = 2 mu <T> holds bitwise per path:")
rows_t = expectation_report(h2, "T", n_max=0, l_max=0, constants=PAPER)
rows_p = expectation_report(h2, "p2", n_max=0, l_max=0, constants=PAPER)
t00 = rows_t[0].machine_derivative
p00 = rows_p[0].machine_derivative
print(f"  <T>(0,0) = {t00!r}")
print(f"  <p^2>(0,0) = {p00!r} = 2 * {h2.mu} * <T> -> {p00 == 2 * h2.mu * t00}")
