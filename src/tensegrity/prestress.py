"""Self stresses and the prestress-rigidity certificate.

A self stress is a left null vector w of dg|_p: edge tensions in perfect
equilibrium at every node.  The stress matrix Omega_w spreads the w-weighted
graph Laplacian across the d spatial dimensions; positive definiteness of
F^T Omega_w F on a flex basis F certifies prestress rigidity.  The sign
report reads each member's kind through KIND_SIGN: a cable's stress must
be positive and a strut's negative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import (Configuration, FrameworkError, FrameworkGraph, MemberConstraintSystem,
                        _member_values)
from .rigidity import (
    RANK_REL_TOL,
    NullspaceDecomposition,
    incidence_matrix,
    jacobian_at,
    nullspace_decomposition,
)

#: strict-inequality margin for cable/strut sign checks and zero-entry reports
SIGN_MARGIN = 1e-9

#: convex solve for k >= 2: duality gap on parts scaled to unit largest entry,
#: Newton decrement and step cap per barrier stage, barrier weight ratio
GAP_TOL = 1e-12
CENTER_TOL = 1e-3
STAGE_STEPS = 50
MU_FACTOR = 0.1


@dataclass(frozen=True)
class PrestressCertificate:
    """Outcome of the prestress certificate.

    verdict is one of {found, infinitesimally_rigid, no_self_stress,
    not_found}; self_stress_dim is always set, and the remaining fields are
    populated when a stress basis and a nonempty flex space both exist.
    """

    verdict: str
    self_stress_dim: int
    coefficients: np.ndarray | None = None
    stress: np.ndarray | None = None
    reduced: np.ndarray | None = None
    reduced_eigenvalues: np.ndarray | None = None
    min_eigenvalue: float | None = None
    cables_positive: bool | None = None
    struts_negative: bool | None = None
    sign_violations: tuple = ()
    zero_members: tuple = ()

    def to_json_dict(self) -> dict:
        out = {"verdict": self.verdict, "self_stress_dim": self.self_stress_dim}
        if self.coefficients is not None:
            out["coefficients"] = list(self.coefficients)
        if self.stress is not None:
            out["stress"] = list(self.stress)
        if self.reduced is not None:
            out["reduced_matrix"] = self.reduced.tolist()
            out["reduced_eigenvalues"] = self.reduced_eigenvalues.tolist()
        if self.min_eigenvalue is not None:
            out["min_eigenvalue"] = self.min_eigenvalue
        if self.cables_positive is not None:
            out["cables_positive"] = self.cables_positive
            out["struts_negative"] = self.struts_negative
            out["sign_violations"] = [list(m) for m in self.sign_violations]
            out["zero_members"] = [list(m) for m in self.zero_members]
        return out


def self_stress_basis(decomp: NullspaceDecomposition) -> list:
    """Basis of the left nullspace of dg|_p, one stress vector per dimension.

    Rescales each orthonormal stress of the decomposition so the largest
    entry magnitude is 1 and the first stressed member is positive.
    """
    out = []
    for w in decomp.self_stresses.T:
        w = w / np.max(np.abs(w))
        nonzero = np.nonzero(np.abs(w) > SIGN_MARGIN)[0]
        out.append(-w if nonzero.size and w[nonzero[0]] < 0.0 else w)
    return out


def _weighted_laplacian(graph: FrameworkGraph, w) -> np.ndarray:
    """The n x n w-weighted graph Laplacian L, so that Omega_w = L (x) I_d."""
    w = _member_values(graph, w, "stress entries")
    inc = incidence_matrix(graph)
    return inc.T @ (w[:, None] * inc)


def stress_matrix(graph: FrameworkGraph, w) -> np.ndarray:
    """Omega_w: the w-weighted graph Laplacian Kronecker-spread by I_d; w
    is one finite stress per member."""
    return np.kron(_weighted_laplacian(graph, w), np.eye(graph.d))


def stiffness_and_energy(sys: MemberConstraintSystem, p: Configuration,
                         c, w) -> tuple:
    """K_c = dg^T diag(c) dg and the energy Hessian H = Omega_w + K_c; c
    and w are one finite number per member, c nonnegative."""
    c = _member_values(sys.graph, c, "material constants")
    if np.any(c < 0.0):
        raise FrameworkError("material constants must be nonnegative")
    dg = jacobian_at(sys, p)
    K = dg.T @ (c[:, None] * dg)
    return K, stress_matrix(sys.graph, w) + K


def _no_stress_reaches_the_flexes(graph: FrameworkGraph, basis, parts,
                                  tol_rel: float) -> bool:
    """True when no combination of the basis stresses can pass the
    re-verification in prestress_certificate, so a solve would be futile.

    With G_P[i, j] = <P_i, P_j>_F over the reduced parts and G_L[i, j] =
    <L_i, L_j>_F over the weighted Laplacians, Omega_i = L_i (x) I_d, so
    ||Omega(a)||_F^2 = d a^T G_L a.  For every unit a,
      lambda_min(sum a_i P_i) <= ||sum a_i P_i||_F <= sqrt(lambda_max(G_P))
      ||Omega(a)||_2 >= ||Omega(a)||_F / sqrt(nd) >= sqrt(lambda_min(G_L) / n),
    so lambda_max(G_P) n < tol_rel^2 lambda_min(G_L) gives
    lambda_min(sum a_i P_i) < tol_rel ||Omega(a)||_2 for every a.
    """
    P = np.reshape(parts, (len(parts), -1))
    W = np.array(basis)
    inc = incidence_matrix(graph)
    # <L_a, L_b>_F = tr(D_a Q D_b Q) = a^T (Q o Q) b with Q = inc inc^T
    Q = inc @ inc.T
    gram_parts = np.linalg.eigvalsh(P @ P.T)[-1]
    gram_laplacians = np.linalg.eigvalsh(W @ (Q * Q) @ W.T)[0]
    return gram_parts * graph.n < tol_rel ** 2 * gram_laplacians


def _max_min_eigenvalue(parts) -> tuple:
    """Unit a* of largest lambda* = lambda_min(sum a_i P_i), e_1 if lambda* <= 0,
    and the dual Y, by one solve of the concave max_a lambda_min(sum a_i P_i)
    - |a|^2 / 2, whose maximiser is lambda* a* if lambda* > 0 and 0 otherwise.
    On parts scaled to unit largest entry, Newton's method in x = (a, t)
    maximises (t - |a|^2 / 2) / mu + log det S, S = sum a_i P_i - t I, from
    a = 0, t = -1 for mu = 1, MU_FACTOR, ... until the duality gap mu f is
    below GAP_TOL.  Y = mu S^-1 >= 0 has trace near 1, and lambda* <=
    |(tr Y P_i)_i| / tr Y."""
    P = np.asarray(parts) + np.swapaxes(parts, 1, 2)  # rounding noise is not symmetric
    k, f = len(P), P.shape[1]
    B = np.concatenate([P / np.max(np.abs(P)), -np.eye(f)[None]])  # S = sum_j x_j B_j
    lin, quad = np.eye(k + 1)[k], np.append(np.ones(k), 0.0)
    x, mu = -lin, 1.0 / MU_FACTOR
    while mu * f > GAP_TOL:
        mu *= MU_FACTOR
        for _ in range(STAGE_STEPS):
            sig, V = np.linalg.eigh(np.tensordot(x, B, 1))
            C = (V.T @ B @ V) / np.sqrt(np.outer(sig, sig))  # S^-1/2 B_j S^-1/2, rotated
            grad = (lin - quad * x) / mu + np.trace(C, axis1=1, axis2=2)
            hess = np.diag(quad / mu) + np.tensordot(C, C, ([1, 2], [1, 2]))
            step = np.linalg.solve(hess, grad)
            dec2 = grad @ step
            if dec2 <= CENTER_TOL ** 2:
                break
            # backtrack on the barrier's gain along the step, written through the
            # eigenvalues nu of S^-1/2 dS S^-1/2 so that no O(1/mu) terms cancel
            nu = np.linalg.eigvalsh(np.tensordot(step, C, 1))
            curv = step @ (quad * step) / mu
            h = 1.0
            while np.any(h * nu <= -1.0) or (h * dec2 - h * h * curv / 2 + np.sum(
                    np.log1p(h * nu) - h * nu) < h * dec2 / 4):
                h /= 2
            x = x + h * step
    a = x[:k]
    positive = np.linalg.eigvalsh(np.tensordot(a, P, 1))[0] > 0.0
    return (a / np.linalg.norm(a) if positive else np.eye(k)[0]), mu * (V / sig) @ V.T


def prestress_certificate(sys: MemberConstraintSystem, p: Configuration,
                          tol_rel: float = RANK_REL_TOL) -> PrestressCertificate:
    """Look for a self stress whose stress matrix is positive definite on the
    flex space.

    Empty flex space short-circuits to infinitesimally_rigid, empty stress
    basis to no_self_stress.  When the reduced parts F^T Omega_i F are too
    small for any combination to pass the re-verification below, the first
    basis stress is taken without a solve.  Otherwise, with one basis stress
    the sign choice is exhaustive, and with more one convex solve maximizes
    the minimum eigenvalue over unit coefficient vectors.  Positive
    definiteness of the result is re-verified from scratch: its minimum
    eigenvalue must exceed tol_rel times the spectral norm of its stress
    matrix, so that rounding noise on a flex the stress does not reach is
    not taken for positive definiteness.  A member violates the sign report
    when s = KIND_SIGN[kind] is nonzero and s * w <= SIGN_MARGIN.
    """
    graph = sys.graph

    decomp = nullspace_decomposition(sys, p, tol_rel)
    F = decomp.flexes
    basis = self_stress_basis(decomp)
    if F.shape[1] == 0:
        return PrestressCertificate(verdict="infinitesimally_rigid",
                                    self_stress_dim=len(basis))
    if not basis:
        return PrestressCertificate(verdict="no_self_stress", self_stress_dim=0)

    reduced_parts = [F.T @ stress_matrix(graph, w) @ F for w in basis]
    if _no_stress_reaches_the_flexes(graph, basis, reduced_parts, tol_rel):
        a = np.eye(len(basis))[0]
    elif len(basis) == 1:
        signs = np.array([[1.0], [-1.0]])  # one stacked eigh of +P_1 and -P_1
        a = signs[np.argmax(np.linalg.eigh(signs[:, :, None] * reduced_parts[0])[0][:, 0])]
    else:
        a = _max_min_eigenvalue(reduced_parts)[0]

    stress = sum(ai * w for ai, w in zip(a, basis))
    # independent re-verification: rebuild the reduced matrix from the
    # combined stress rather than reusing the solve's running value
    lap = _weighted_laplacian(graph, stress)
    omega = np.kron(lap, np.eye(graph.d))
    reduced = F.T @ omega @ F
    eigenvalues = np.linalg.eigvalsh(reduced)
    min_eig = float(eigenvalues[0])
    # Omega = L (x) I_d with L symmetric, so ||Omega||_2 = max |eigenvalue of L|
    definite = min_eig > tol_rel * np.max(np.abs(np.linalg.eigvalsh(lap)))

    signs = graph.signs
    signed = np.multiply(signs, stress, out=np.full(graph.m, np.inf), where=signs != 0)
    violating = signed <= SIGN_MARGIN

    def ends(flags):
        return tuple(graph.members[k][:2] for k in np.flatnonzero(flags))

    return PrestressCertificate(
        verdict="found" if definite else "not_found",
        self_stress_dim=len(basis),
        coefficients=np.asarray(a, dtype=float),
        stress=np.asarray(stress, dtype=float),
        reduced=reduced,
        reduced_eigenvalues=eigenvalues,
        min_eigenvalue=min_eig,
        cables_positive=not np.any(violating & (signs > 0)),
        struts_negative=not np.any(violating & (signs < 0)),
        sign_violations=ends(violating),
        zero_members=ends(np.abs(stress) <= SIGN_MARGIN),
    )
