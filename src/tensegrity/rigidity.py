"""Numerical linear algebra of frameworks.

Jacobians of the member constraints, numeric and symbolic rigidity and
incidence matrices, nullspace bases split into rigid motions and flexes,
infinitesimal-rigidity verdicts, moving-frame pinning, graph Laplacians.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .framework import (
    Configuration,
    FrameworkError,
    FrameworkGraph,
    MemberConstraintSystem,
    _check_shape,
    _member_differences,
    _member_values,
    squared_lengths,
)

#: relative singular-value cutoff for numerical rank decisions
RANK_REL_TOL = 1e-8

#: cutoff when orthonormalizing candidate spanning sets (rigid motions, flexes)
SPAN_REL_TOL = 1e-10

#: members shorter than this are treated as degenerate
MIN_MEMBER_LENGTH = 1e-12

#: random configurations surveyed for the generic corank
GENERIC_TRIALS = 3


@dataclass(frozen=True)
class RigidityMatrices:
    """Jacobian dg|_x, unit-row rigidity matrix A, and diagonal lengths L.

    The defining relation is L @ A == 0.5 * dg entrywise: L clears the
    per-row normalization of A while 1/2 removes the derivative factor 2.
    """

    jacobian: np.ndarray
    rigidity: np.ndarray
    edge_lengths: np.ndarray


@dataclass(frozen=True)
class NullspaceDecomposition:
    """Null dg|_p split as R (rigid motions) plus F (flexes), F orthogonal to R,
    and an orthonormal basis of the left nullspace (self stresses, as columns).
    One rank r of dg|_p fixes both: corank = n*d - r, m - r stresses.
    rank_gap is s[r-1] / s[r] over the singular values of dg|_p, the margin
    of that decision; inf when none falls below the cut or dg|_p = 0."""

    rigid_motions: np.ndarray
    flexes: np.ndarray
    tol: float
    self_stresses: np.ndarray
    rank_gap: float

    @property
    def corank(self) -> int:
        return self.rigid_motions.shape[1] + self.flexes.shape[1]


@dataclass(frozen=True)
class RigidityReport:
    generic_corank: int
    corank_at_p: int
    rigid_motion_dim: int
    verdict: str
    decomposition: NullspaceDecomposition
    full_span: bool

    @property
    def flexes(self) -> np.ndarray:
        return self.decomposition.flexes

    def to_json_dict(self) -> dict:
        return {
            "generic_corank": self.generic_corank,
            "corank_at_p": self.corank_at_p,
            "rigid_motion_dim": self.rigid_motion_dim,
            "flex_dim": int(self.flexes.shape[1]),
            "verdict": self.verdict,
            "full_span": self.full_span,
            "rigid_motion_basis": self.decomposition.rigid_motions.T.tolist(),
            "flex_basis": self.flexes.T.tolist(),
        }


def jacobian_at(sys: MemberConstraintSystem, x: Configuration) -> np.ndarray:
    """Jacobian of the member polynomials at x, shape m x (n*d).

    The row of member (i, j) carries 2(x_ik - x_jk) in the node-i block and
    the negative in the node-j block.
    """
    graph = sys.graph
    coords = _check_shape(graph, x)
    diff = 2.0 * (coords[graph.heads] - coords[graph.tails])
    rows = np.arange(graph.m)
    dg = np.zeros((graph.m, graph.n, graph.d))
    dg[rows, graph.heads] = diff
    dg[rows, graph.tails] = -diff
    return dg.reshape(graph.m, -1)


def symbolic_rigidity_matrix(graph: FrameworkGraph, coords) -> list:
    """Half the Jacobian of member_polynomials over a coordinate matrix, like
    jacobian_at / 2: x_i - x_j in member (i, j)'s node-i block, x_j - x_i in j's."""
    members = _member_differences(graph, coords)
    zero, d = coords[0][0] * 0, graph.d
    matrix = []
    for i, j, diffs in zip(graph.heads.tolist(), graph.tails.tolist(), members):
        row = [zero] * (graph.n * d)
        row[i * d:(i + 1) * d] = diffs
        row[j * d:(j + 1) * d] = [-e for e in diffs]
        matrix.append(row)
    return matrix


def incidence_matrix(graph: FrameworkGraph) -> np.ndarray:
    """m x n incidence matrix: row of member (i, j) has -1 at i and +1 at j."""
    rows = np.arange(graph.m)
    inc = np.zeros((graph.m, graph.n))
    inc[rows, graph.heads] = -1.0
    inc[rows, graph.tails] = 1.0
    return inc


def rigidity_and_incidence(sys: MemberConstraintSystem, x: Configuration):
    """Rigidity matrix A with antipodal unit-vector node blocks, plus L, dg,
    and the signed incidence matrix of the underlying graph.

    Raises on members of (numerically) zero length, where the unit vectors
    are undefined.
    """
    graph = sys.graph
    dg = jacobian_at(sys, x)
    lengths = np.sqrt(squared_lengths(graph, x))
    short = lengths <= MIN_MEMBER_LENGTH
    if np.any(short):
        bad = [graph.members[k][:2] for k in np.nonzero(short)[0]]
        raise FrameworkError(f"degenerate members (coincident endpoints): {bad}")
    rigidity = 0.5 * dg / lengths[:, None]
    mats = RigidityMatrices(jacobian=dg, rigidity=rigidity,
                            edge_lengths=np.diag(lengths))
    return mats, incidence_matrix(graph)


def _numerical_rank(s: np.ndarray, tol_rel: float) -> int:
    """Number of singular values (descending) above tol_rel * sigma_max."""
    if not 0.0 < tol_rel < 1.0:
        raise FrameworkError(f"rank tolerance must be a number in (0, 1), got {tol_rel}")
    return int(np.count_nonzero(s > tol_rel * s[0])) if s.size else 0


def _orthonormal_span(columns: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span, dropping near-dependent directions."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    return u[:, :_numerical_rank(s, SPAN_REL_TOL)]


def rigid_motion_basis(x: Configuration) -> np.ndarray:
    """Orthonormal basis of infinitesimal rigid motions at x, as columns.

    d translations plus binom(d,2) nodewise skew-matrix rotations; the
    dimension drops below binom(d+1,2) for degenerate embeddings.
    """
    coords = np.asarray(x.coords, dtype=float)
    n, d = coords.shape
    candidates = []
    for k in range(d):
        v = np.zeros((n, d))
        v[:, k] = 1.0
        candidates.append(v.reshape(-1))
    for a in range(d):
        for b in range(a + 1, d):
            v = np.zeros((n, d))
            v[:, a] = -coords[:, b]
            v[:, b] = coords[:, a]
            candidates.append(v.reshape(-1))
    return _orthonormal_span(np.column_stack(candidates))


def numerical_nullspace(M: np.ndarray, tol_rel: float = RANK_REL_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the nullspace of M.

    Right singular vectors whose singular value is <= tol_rel * sigma_max
    are taken as null directions; rank + corank = column count.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    return vh[_numerical_rank(s, tol_rel):].T


def nullspace_decomposition(sys: MemberConstraintSystem, p: Configuration,
                            tol_rel: float = RANK_REL_TOL) -> NullspaceDecomposition:
    """Split Null dg|_p into rigid motions R and the orthogonal flex complement
    F, and take the self stresses from the same SVD of dg|_p."""
    u, s, vh = np.linalg.svd(jacobian_at(sys, p), full_matrices=True)
    rank = _numerical_rank(s, tol_rel)
    null = vh[rank:].T
    R = rigid_motion_basis(p)
    # R spans rigid motions globally; inside Null dg the complement has
    # exactly corank - dim R dimensions, so trim spurious near-zero columns.
    F = _orthonormal_span(null - R @ (R.T @ null))
    F = F[:, :max(null.shape[1] - R.shape[1], 0)]
    gap = s[rank - 1] / s[rank] if 0 < rank < s.size else np.inf
    return NullspaceDecomposition(rigid_motions=R, flexes=F, tol=tol_rel,
                                  self_stresses=u[:, rank:], rank_gap=float(gap))


def random_configuration(graph: FrameworkGraph, rng) -> Configuration:
    return Configuration(rng.uniform(-1.0, 1.0, size=(graph.n, graph.d)))


def affine_span_dimension(x: Configuration) -> int:
    coords = np.asarray(x.coords, dtype=float)
    s = np.linalg.svd(coords - coords[0], compute_uv=False)
    return _numerical_rank(s, SPAN_REL_TOL)


def rigidity_report(sys: MemberConstraintSystem, p: Configuration,
                    tol_rel: float = RANK_REL_TOL,
                    seed=None) -> RigidityReport:
    """Corank survey and infinitesimal-rigidity verdict at p.

    generic_corank is the minimum corank of dg over GENERIC_TRIALS random
    configurations with i.i.d. uniform [-1, 1] coordinates; the verdict
    compares corank at p against binom(d+1, 2) for full-span embeddings.
    """
    graph = sys.graph
    rng = np.random.default_rng(seed)
    coranks = []
    for _ in range(GENERIC_TRIALS):
        dg = jacobian_at(sys, random_configuration(graph, rng))
        s = np.linalg.svd(dg, compute_uv=False)
        coranks.append(dg.shape[1] - _numerical_rank(s, tol_rel))
    generic_corank = min(coranks)

    decomp = nullspace_decomposition(sys, p, tol_rel)
    corank_at_p = decomp.corank
    rigid_dim = decomp.rigid_motions.shape[1]
    full_span = affine_span_dimension(p) == graph.d
    if full_span:
        rigid = corank_at_p == comb(graph.d + 1, 2)
    else:
        rigid = corank_at_p == rigid_dim
    return RigidityReport(
        generic_corank=generic_corank,
        corank_at_p=corank_at_p,
        rigid_motion_dim=rigid_dim,
        verdict="infinitesimally_rigid" if rigid else "not_infinitesimally_rigid",
        decomposition=decomp,
        full_span=full_span,
    )


def pin_moving_frame(x: Configuration) -> Configuration:
    """Change coordinates so node 1 sits at the origin, node 2 on the first
    axis, node 3 in the span of the first two axes, and so on.

    Distances are preserved (the map is a rigid motion up to reflection);
    the binom(d+1,2) structural zeros are set exactly.  Node 2 lands on the
    positive first axis; remaining reflection choices follow the QR factor
    as computed, which leaves already-pinned input untouched.
    """
    coords = np.asarray(x.coords, dtype=float)
    n, d = coords.shape
    if n < d:
        raise FrameworkError(f"need at least d={d} nodes to pin a frame")
    centered = coords - coords[0]
    M = centered[1:d].T  # columns p2-p1, ..., pd-p1
    if d > 1:
        q, r = np.linalg.qr(M, mode="complete")
        diag = np.abs(np.diagonal(r))
        scale = np.max(np.abs(M)) if M.size else 0.0
        if np.any(diag <= 1e-12 * max(scale, 1.0)):
            raise FrameworkError("degenerate leading nodes: cannot fix the frame")
        if r[0, 0] < 0.0:
            q = q.copy()
            q[:, 0] = -q[:, 0]
        pinned = centered @ q
    else:
        pinned = centered.copy()
    pinned[~free_coordinate_mask(n, d)] = 0.0
    return Configuration(pinned)


def free_coordinate_mask(n: int, d: int) -> np.ndarray:
    """n x d mask of the coordinates that pin_moving_frame leaves free: node
    i (0-based) keeps its first min(i, d) coordinates, so entry (i, k) is
    k < i."""
    return np.arange(d) < np.arange(n)[:, None]


def _pinned_coordinates(n: int, d: int, poly, ring) -> list:
    """The n x d coordinate matrix of a framework pinned by pin_moving_frame,
    over the ring of the polynomial class `poly`: the ring's generators at
    the free coordinates, in free_coordinate_mask's row-major order, and its
    zero at the pins."""
    zero, free = poly.constant(ring, 0), itertools.count()
    return [[poly.variable(ring, next(free)) if k else zero for k in row]
            for row in free_coordinate_mask(n, d).tolist()]


def _weighted_laplacian(graph: FrameworkGraph, w, what: str) -> np.ndarray:
    """The n x n w-weighted graph Laplacian incidence^T diag(w) incidence,
    the one builder of it (conductances and stresses alike); w is one
    finite number per member, the `what` of its errors."""
    w = _member_values(graph, w, what)
    inc = incidence_matrix(graph)
    return inc.T @ (w[:, None] * inc)


def laplacian_eigenpairs(graph: FrameworkGraph, conductances) -> tuple:
    """Eigendecomposition of the weighted graph Laplacian, ascending.

    Returns (eigenvalues, eigenvectors) of _weighted_laplacian for one
    positive finite conductance c per member, eigenvectors as columns.
    The all-ones vector always has eigenvalue 0."""
    c = _member_values(graph, conductances, "conductances")
    if not np.all(c > 0.0):
        raise FrameworkError("conductances must be positive")
    values, vectors = np.linalg.eigh(_weighted_laplacian(graph, c, "conductances"))
    return values, vectors
