"""Self stresses and the prestress-rigidity certificate.

A self stress is a left null vector w of dg|_p: edge tensions in perfect
equilibrium at every node.  The stress matrix Omega_w spreads the w-weighted
graph Laplacian across the d spatial dimensions; positive definiteness of
F^T Omega_w F on a flex basis F certifies prestress rigidity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import Configuration, FrameworkError, FrameworkGraph, MemberConstraintSystem
from .rigidity import (
    RANK_REL_TOL,
    NullspaceDecomposition,
    incidence_matrix,
    jacobian_at,
    nullspace_decomposition,
)

#: strict-inequality margin for cable/strut sign checks and zero-entry reports
SIGN_MARGIN = 1e-9

#: number of seeded random starts for the k >= 2 eigenvalue maximization
SEARCH_STARTS = 20


@dataclass(frozen=True)
class PrestressCertificate:
    """Outcome of the prestress search.

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


def stress_matrix(graph: FrameworkGraph, w) -> np.ndarray:
    """Omega_w: the w-weighted graph Laplacian Kronecker-spread by I_d."""
    w = np.asarray(w, dtype=float)
    if w.shape != (graph.m,):
        raise FrameworkError(f"expected {graph.m} stress entries, got shape {w.shape}")
    inc = incidence_matrix(graph)
    lap = inc.T @ (w[:, None] * inc)
    return np.kron(lap, np.eye(graph.d))


def stiffness_and_energy(sys: MemberConstraintSystem, p: Configuration,
                         c, w) -> tuple:
    """K_c = dg^T diag(c) dg and the energy Hessian H = Omega_w + K_c."""
    c = np.asarray(c, dtype=float)
    if c.shape != (sys.m,):
        raise FrameworkError(f"expected {sys.m} material constants, got shape {c.shape}")
    if np.any(c < 0.0):
        raise FrameworkError("material constants must be nonnegative")
    dg = jacobian_at(sys, p)
    K = dg.T @ (c[:, None] * dg)
    return K, stress_matrix(sys.graph, w) + K


def _min_eigs_and_gradients(parts, A: np.ndarray) -> tuple:
    """lambda_min of sum_i A[s, i] * parts[i] for each row s of A, from one
    stacked eigh, and its gradient u^T parts[i] u, u the unit eigenvector."""
    M = sum(c[:, None, None] * R for c, R in zip(A.T, parts))
    vals, vecs = np.linalg.eigh(M)
    U = vecs[:, :, 0]
    # this matmul form gives each row bit for bit u @ R @ u; einsum does not
    grad = np.stack([((U[:, None, :] @ R) @ U[:, :, None])[:, 0, 0] for R in parts], axis=1)
    return vals[:, 0], grad


def _row_norms(A: np.ndarray) -> np.ndarray:
    return np.sqrt((A[:, None, :] @ A[:, :, None])[:, 0, 0])


def _no_stress_reaches_the_flexes(graph: FrameworkGraph, basis, parts,
                                  tol_rel: float) -> bool:
    """True when no combination of the basis stresses can pass the
    re-verification in prestress_certificate, so a search would be futile.

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


def _maximize_min_eigenvalue(parts, rng):
    """Multi-start projected gradient ascent of lambda_min over the unit sphere,
    all SEARCH_STARTS starts in lockstep; the first best final value wins."""
    a = np.array([rng.normal(size=len(parts)) for _ in range(SEARCH_STARTS)])
    a /= _row_norms(a)[:, None]
    val, grad = _min_eigs_and_gradients(parts, a)
    final_val, final_a = np.empty_like(val), np.empty_like(a)
    # live starts, compacted as they end: index, coefficients, value, gradient, step
    idx, step = np.arange(SEARCH_STARTS), np.full(SEARCH_STARTS, 0.5)
    for _ in range(200):
        cand = a + step[:, None] * grad
        norm = _row_norms(cand)
        moved = norm != 0.0  # a zero candidate ends its start
        cand /= np.where(moved, norm, 1.0)[:, None]
        cand_val, cand_grad = _min_eigs_and_gradients(parts, cand)
        better = moved & (cand_val > val)
        a[better], val[better], grad[better] = cand[better], cand_val[better], cand_grad[better]
        step = np.where(better, np.minimum(step * 1.5, 2.0), step * 0.5)
        keep = moved & (better | (step >= 1e-12))
        if not keep.all():
            final_val[idx[~keep]], final_a[idx[~keep]] = val[~keep], a[~keep]
            idx, a, val, grad, step = idx[keep], a[keep], val[keep], grad[keep], step[keep]
            if not idx.size:
                break
    final_val[idx], final_a[idx] = val, a
    return final_a[np.argmax(final_val)]


def prestress_certificate(sys: MemberConstraintSystem, p: Configuration,
                          partition=None, tol_rel: float = RANK_REL_TOL,
                          seed=0) -> PrestressCertificate:
    """Search for a self stress whose stress matrix is positive definite on
    the flex space.

    Empty flex space short-circuits to infinitesimally_rigid, empty stress
    basis to no_self_stress.  When the reduced parts F^T Omega_i F are too
    small for any combination to pass the re-verification below, the first
    basis stress is taken without a search.  Otherwise, with one basis
    stress the sign choice is exhaustive, and with more a seeded multi-start
    search maximizes the minimum eigenvalue over unit coefficient vectors.
    Positive definiteness of the winner is re-verified from scratch: its
    minimum eigenvalue must exceed tol_rel times the spectral norm of its
    stress matrix, so that rounding noise on a flex the stress does not
    reach is not taken for positive definiteness.  Cable/strut sign
    feasibility is reported against `partition` (defaults to the member
    kinds of sys).
    """
    graph = sys.graph
    kinds = tuple(partition) if partition is not None else graph.kinds()
    if len(kinds) != graph.m:
        raise FrameworkError(f"expected {graph.m} member kinds, got {len(kinds)}")

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
        signs = np.array([[1.0], [-1.0]])
        a = signs[np.argmax(_min_eigs_and_gradients(reduced_parts, signs)[0])]
    else:
        a = _maximize_min_eigenvalue(reduced_parts, np.random.default_rng(seed))

    stress = sum(ai * w for ai, w in zip(a, basis))
    # independent re-verification: rebuild the reduced matrix from the
    # combined stress rather than reusing the search's running value
    omega = stress_matrix(graph, stress)
    reduced = F.T @ omega @ F
    eigenvalues = np.linalg.eigvalsh(reduced)
    min_eig = float(eigenvalues[0])
    definite = min_eig > tol_rel * np.linalg.norm(omega, 2)

    violations = []
    zero_members = []
    cables_ok = True
    struts_ok = True
    for k, ((i, j, _), kind) in enumerate(zip(graph.members, kinds)):
        wk = stress[k]
        if abs(wk) <= SIGN_MARGIN:
            zero_members.append((i, j))
        if kind == "cable" and wk <= SIGN_MARGIN:
            violations.append((i, j))
            cables_ok = False
        elif kind == "strut" and wk >= -SIGN_MARGIN:
            violations.append((i, j))
            struts_ok = False

    return PrestressCertificate(
        verdict="found" if definite else "not_found",
        self_stress_dim=len(basis),
        coefficients=np.asarray(a, dtype=float),
        stress=np.asarray(stress, dtype=float),
        reduced=reduced,
        reduced_eigenvalues=eigenvalues,
        min_eigenvalue=min_eig,
        cables_positive=cables_ok,
        struts_negative=struts_ok,
        sign_violations=tuple(violations),
        zero_members=tuple(zero_members),
    )
