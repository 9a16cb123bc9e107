"""
Self stresses and the prestress certificate
===========================================

A self stress is a left null vector of the Jacobian: member tensions in
equilibrium at every node.  If some self stress makes the stress matrix
positive definite on the flex space, the framework is prestress rigid
even though it is not infinitesimally rigid.
"""

import numpy as np

from tensegrity import (load_fixture, nullspace_decomposition,
                        prestress_certificate, self_stress_basis,
                        stress_matrix)

graph, p, sys_ = load_fixture("3prism")

# one SVD of the Jacobian gives the flexes and the self stresses
dec = nullspace_decomposition(sys_, p)
basis = self_stress_basis(dec)
print(f"self stress space dimension: {len(basis)}")
w = basis[0] / basis[0][0]
print("stress entries by member:")
for (i, j, _), wk in zip(graph.members, w):
    print(f"  ({i}, {j}): {wk:+.3f}")

# the tensegrity split is each member's kind: cables must carry tension
# (positive stress), struts compression (negative)
cables = [(i, j) for i, j, kind in graph.members if kind == "cable"]
struts = [(i, j) for i, j, kind in graph.members if kind == "strut"]
print(f"\ncables: {cables}")
print(f"struts: {struts}")

cert = prestress_certificate(sys_, p)
print(f"\ncertificate: {cert.verdict}, "
      f"min eigenvalue of the reduced matrix: {cert.min_eigenvalue:.6f}")
print(f"cables positive: {cert.cables_positive}, "
      f"struts negative: {cert.struts_negative}")

# re-verify off the certificate's path: restrict Omega_w to the flex space
omega = stress_matrix(graph, cert.stress)
reduced = dec.flexes.T @ omega @ dec.flexes
print(f"independent check, eigenvalues: {np.linalg.eigvalsh(reduced)}")
