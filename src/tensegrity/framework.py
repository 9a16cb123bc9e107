"""Domain model for bar and tensegrity frameworks.

A framework is a graph whose members are classified as bars, cables or
struts, together with an embedding of the nodes in R^d.  Each member's
`kind` is the only source of its class.  Member constraints are the
squared-length polynomials g_ij(x) = sum_k (x_ik - x_jk)^2 - l_ij^2,
required to be = 0 on bars, <= 0 on cables and >= 0 on struts; a self
stress must be > 0 on cables and < 0 on struts.  KIND_SIGN holds that
rule: s = 0 for a bar, and s * g <= 0, s * w > 0 for a cable (s = 1) or a
strut (s = -1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import chain

import numpy as np

from .symbolic import _natural

#: sign of each member kind: a cable shortens and carries tension, a strut
#: is the reverse, a bar keeps its length and may carry either
KIND_SIGN = {"bar": 0, "cable": 1, "strut": -1}

#: slack when deciding whether a member constraint is satisfied;
#: floating residuals of exact solutions sit near 1e-15, so this is generous.
FEASIBILITY_TOL = 1e-9

FIXTURE_NAMES = ("3prism", "slingshot", "square", "triangle", "hinge", "molecule")


class FrameworkError(ValueError):
    """Raised for malformed framework documents or invalid inputs."""


@dataclass(frozen=True)
class FrameworkGraph:
    """Combinatorial part of a framework: node count, dimension, members.

    n and d are positive integers.  Members are (i, j, kind) triples with
    integer 1 <= i < j <= n, no duplicates.  Node indices are 1-based,
    matching the input format; validation sets (m,) arrays, not fields, of
    the 0-based ends `heads` (i - 1) and `tails` (j - 1) and of the `signs`
    KIND_SIGN[kind].
    """

    n: int
    d: int
    members: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        _natural(self.n, FrameworkError, "node count", start=1)
        _natural(self.d, FrameworkError, "dimension", start=1)
        seen = set()
        for i, j, kind in self.members:
            if not (1 <= _natural(i, FrameworkError, "node index i", start=None)
                    < _natural(j, FrameworkError, "node index j", start=None) <= self.n):
                raise FrameworkError(f"member ({i}, {j}) must have 1 <= i < j <= n "
                                     f"with n={self.n}")
            if (i, j) in seen:
                raise FrameworkError(f"duplicate member ({i}, {j})")
            if not (isinstance(kind, str) and kind in KIND_SIGN):
                raise FrameworkError(f"unknown member kind {kind!r} of ({i}, {j})")
            seen.add((i, j))
        ends = np.array([m[:2] for m in self.members], dtype=np.intp).reshape(-1, 2) - 1
        signs = np.array([KIND_SIGN[kind] for *_, kind in self.members], dtype=np.intp)
        for name, value in (("heads", ends[:, 0]), ("tails", ends[:, 1]), ("signs", signs)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def m(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Configuration:
    """An n x d array of real coordinates; holds embeddings p and points x."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.array(self.coords, dtype=float)
        if coords.ndim != 2:
            raise FrameworkError(f"coordinates must be an n x d array, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise FrameworkError("non-finite coordinate in configuration")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class MemberConstraintSystem:
    """The polynomials g_ij for one framework: graph plus rest squared lengths."""

    graph: FrameworkGraph
    rest_sq_lengths: np.ndarray

    def __post_init__(self):
        rest = _member_values(self.graph, self.rest_sq_lengths, "rest squared lengths").copy()
        if not np.all(rest > 0.0):
            raise FrameworkError("all rest squared lengths must be positive")
        rest.setflags(write=False)
        object.__setattr__(self, "rest_sq_lengths", rest)

    @property
    def m(self) -> int:
        return self.graph.m


def _member_values(graph: FrameworkGraph, values, what: str) -> np.ndarray:
    """values as a float array of one finite value per member of graph: the
    one check of rest lengths, stresses, conductances and material constants."""
    out = np.asarray(values, dtype=float)
    if out.shape != (graph.m,):
        raise FrameworkError(f"expected {graph.m} {what}, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise FrameworkError(f"{what} must be finite")
    return out


def _check_shape(graph: FrameworkGraph, x: Configuration) -> np.ndarray:
    coords = np.asarray(x.coords, dtype=float)
    if coords.shape != (graph.n, graph.d):
        raise FrameworkError(
            f"configuration shape {coords.shape} does not match ({graph.n}, {graph.d})")
    return coords


def squared_lengths(graph: FrameworkGraph, x: Configuration) -> np.ndarray:
    """Squared member lengths at x, one entry per member."""
    coords = _check_shape(graph, x)
    diffs = coords[graph.heads] - coords[graph.tails]
    return np.einsum("ij,ij->i", diffs, diffs)


def _member_differences(graph: FrameworkGraph, coords) -> list:
    """x_i - x_j per axis for each member (i, j) of a coordinate matrix."""
    if not (isinstance(coords, (list, tuple)) and len(coords) == graph.n and all(
            isinstance(row, (list, tuple)) and len(row) == graph.d for row in coords)):
        raise FrameworkError(f"coordinate matrix must be {graph.n} rows of {graph.d} entries")
    return [[a - b for a, b in zip(coords[i], coords[j])]
            for i, j in zip(graph.heads.tolist(), graph.tails.tolist())]


def member_polynomials(sys: MemberConstraintSystem, coords) -> list:
    """g_ij for each member in order over a coordinate matrix, n rows of d
    polynomials in one ring (a free coordinate is a variable, a pinned one
    the ring's zero): the constant -l_ij^2, then (x_ik - x_jk)^2 per axis,
    in that order, which a complex evaluator's sums follow to the last bit."""
    polys = []
    for diffs, rest in zip(_member_differences(sys.graph, coords), sys.rest_sq_lengths):
        g = coords[0][0].constant(coords[0][0].ring, -rest)
        for diff in diffs:
            g = g + diff * diff
        polys.append(g)
    return polys


def build_constraints(graph: FrameworkGraph, p: Configuration,
                      rest_sq_lengths=None) -> MemberConstraintSystem:
    """Constraint system with rest lengths taken from the embedding p
    unless given explicitly."""
    if rest_sq_lengths is None:
        rest_sq_lengths = squared_lengths(graph, p)
    return MemberConstraintSystem(graph, np.asarray(rest_sq_lengths, dtype=float))


def evaluate_members(sys: MemberConstraintSystem, x: Configuration):
    """Residuals g_ij(x) and a per-member feasibility flag.

    With s = KIND_SIGN[kind], a bar (s = 0) requires |g| <= FEASIBILITY_TOL
    and a cable or strut s * g <= FEASIBILITY_TOL.  Returns (residuals,
    feasible) as arrays of length m.
    """
    residuals = squared_lengths(sys.graph, x) - sys.rest_sq_lengths
    signs = sys.graph.signs
    # s * g only where s != 0: 0 * inf would warn and give NaN
    signed = np.multiply(signs, residuals, out=np.abs(residuals), where=signs != 0)
    return residuals, signed <= FEASIBILITY_TOL


def _number(value, what: str) -> float:
    """value as a float if it is a JSON number: an int or a float that is
    not a bool, and not an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FrameworkError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise FrameworkError(f"{what} is too large for a float") from None


def _known_keys(doc: dict, allowed: tuple, what: str) -> None:
    """Reject a key of doc outside `allowed`, which would otherwise be
    dropped without a word (a misspelt "kind" loads a bar)."""
    for key in doc:
        if key not in allowed:
            raise FrameworkError(f"unknown key {key!r} in {what}; allowed keys are "
                                 + ", ".join(map(repr, allowed)))


def _parse_document(doc: dict):
    if not isinstance(doc, dict):
        raise FrameworkError("framework document must be a JSON object")
    if "tensegrity_partition" in doc:
        raise FrameworkError("the tensegrity_partition block is retired: give each "
                             "member its 'kind' (bar, cable or strut) instead")
    _known_keys(doc, ("name", "dimension", "nodes", "members"), "the framework document")
    try:
        d = _natural(doc["dimension"], FrameworkError, "'dimension'", start=None)
        nodes = doc["nodes"]
        members = doc["members"]
    except (KeyError, TypeError) as exc:
        raise FrameworkError(f"malformed framework document: {exc}") from exc
    if not isinstance(nodes, list) or not nodes:
        raise FrameworkError("'nodes' must be a nonempty list of coordinate rows")
    if not all(isinstance(row, list) for row in nodes):
        raise FrameworkError("each node must be a list of coordinates")
    try:
        if not {int, float}.issuperset(map(type, chain.from_iterable(nodes))):
            raise TypeError
        rows = [list(map(float, row)) for row in nodes]
    except (TypeError, OverflowError):  # the checks below name the first bad coordinate
        rows = [[_number(v, f"coordinate of node {k}") for v in row]
                for k, row in enumerate(nodes, 1)]
    try:
        coords = np.array(rows, dtype=float)
    except ValueError as exc:
        raise FrameworkError(f"bad node coordinates: {exc}") from exc
    if coords.ndim != 2 or coords.shape[1] != d:
        raise FrameworkError(
            f"nodes must form an n x {d} array, got shape {coords.shape}")
    if not isinstance(members, list) or not members:
        raise FrameworkError("'members' must be a nonempty list")

    allowed = ("i", "j", "kind", "rest_sq_length")
    known = set(allowed)
    triples = []
    rest = []
    explicit = False
    for entry in members:
        if (type(entry) is dict and type(entry.get("i")) is int
                and type(entry.get("j")) is int and known.issuperset(entry)):
            i, j = entry["i"], entry["j"]
        else:  # checks that word the error; they format the entry, so only here
            try:
                i, j = (_natural(entry[key], FrameworkError, f"{key!r} of member {entry!r}",
                                 start=None) for key in "ij")
            except (KeyError, TypeError) as exc:
                raise FrameworkError(f"bad member entry {entry!r}") from exc
            _known_keys(entry, allowed, f"member {entry!r}")
        kind = entry.get("kind", "bar")
        triples.append((i, j, kind))
        if "rest_sq_length" in entry:
            explicit = True
            value = entry["rest_sq_length"]
            rest.append(value if type(value) is float else
                        _number(value, f"rest_sq_length of member {entry!r}"))
        else:
            rest.append(None)
    if explicit and any(r is None for r in rest):
        raise FrameworkError("either all members or none may carry rest_sq_length")
    return d, coords, triples, (rest if explicit else None)


def load_framework(source):
    """Load a framework document and validate it.

    `source` may be a dict already parsed from JSON or a path to a JSON
    file.  Returns (FrameworkGraph, Configuration,
    MemberConstraintSystem); rest squared lengths are computed from the
    embedding when the document does not carry them.
    """
    if isinstance(source, dict):
        doc = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise FrameworkError(f"cannot read framework document: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FrameworkError(f"invalid JSON in {source}: {exc}") from exc

    d, coords, triples, rest = _parse_document(doc)
    graph = FrameworkGraph(coords.shape[0], d, tuple(triples))
    p = Configuration(coords)
    return graph, p, build_constraints(graph, p, rest)


def load_fixture(name: str):
    """Load one of the packaged example frameworks by name (e.g. '3prism')."""
    if name not in FIXTURE_NAMES:
        raise FrameworkError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    text = resources.files("tensegrity.fixtures").joinpath(f"{name}.json").read_text()
    return load_framework(json.loads(text))
