"""Truncated formal characters.

Characters are stored as sparse maps from depth vectors (coordinates of
lambda - mu on the simple roots) to multiplicities, exact up to a height
cutoff.  The Verma character is the Kostant partition function; finite
dimensional simple characters come from the alternating Weyl sum, with
Freudenthal's recursion as an independent cross-check.
"""

from hovm import (
    HighestWeight,
    kostant_partition,
    parabolic_verma_char,
    parse_gcm,
    simple_finite_char,
    verma_char,
)
from hovm.oracle import freudenthal_char

g = parse_gcm("A2")
print("Kostant partitions in A2:")
for c in [(1, 1), (2, 1), (2, 2)]:
    print("  P%s = %d" % (c, kostant_partition(g, c)))

lam = HighestWeight(g, [1, 1])
adjoint = simple_finite_char(lam, {1, 2}, 8)
print("\nadjoint of sl3: dim =", sum(adjoint.coeffs.values()))
print("zero-weight multiplicity:", adjoint.coeff((1, 1)))
print("Freudenthal agrees:", freudenthal_char(lam, {1, 2}, 8) == adjoint)

pv = parabolic_verma_char(lam, {1}, 5)
print("\nparabolic Verma M((1,1), {1}) coefficients up to height 3:")
for c in sorted(pv.coeffs):
    if sum(c) <= 3:
        print(" ", c, "->", pv.coeff(c))

full = verma_char(HighestWeight(g, ["x", "x"]), 5)
print("\nVerma character is the partition function:",
      all(full.coeff(c) == kostant_partition(g, c) for c in full.coeffs))
