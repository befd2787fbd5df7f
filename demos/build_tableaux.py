"""Construct energy-preserving tableaux and inspect their structure.

The stage matrix of the k-stage, degree-s method is the product of three
small matrices built from the orthonormal polynomial basis on the
quadrature nodes.  Its rank is s no matter how many stages k carries; the
extra stages only raise the quadrature precision.
"""

import numpy as np

from hbvm import (
    HbvmSpec,
    NodeFamily,
    collocation_matrix,
    gauss_system,
    hbvm_tableau,
    tableau_to_json,
)

np.set_printoptions(precision=6, suppress=True)

print("=== k = 6 stages, degree s = 2, Gauss nodes ===")
tab = hbvm_tableau(HbvmSpec(6, 2))
print("c =", tab.c)
print("b =", tab.b)
print("A =")
print(tab.A)
sv = np.linalg.svd(tab.A, compute_uv=False)
print("singular values:", sv)
print("numerical rank:", int(np.sum(sv > 1e-10)), "(equals s)")
print()

print("=== reduction: k = s gives the classical Gauss method ===")
for s in (1, 2, 3):
    tab = hbvm_tableau(HbvmSpec(s, s))
    coll = collocation_matrix(gauss_system(s))
    print(f"s = {s}: max |A - collocation| = {np.max(np.abs(tab.A - coll)):.2e}")
print()

print("=== same degree on Lobatto nodes (note the zero first row) ===")
tab = hbvm_tableau(HbvmSpec(4, 2, NodeFamily.LOBATTO))
print("c =", tab.c)
print("A =")
print(tab.A)
print()

print("=== JSON serialisation (shortest round-trip reals, lossless) ===")
print(tableau_to_json(hbvm_tableau(HbvmSpec(2, 2))))
