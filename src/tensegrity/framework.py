"""Domain model for bar and tensegrity frameworks.

A framework is a graph whose members are classified as bars, cables or
struts, together with an embedding of the nodes in R^d.  Member constraints
are the squared-length polynomials g_ij(x) = sum_k (x_ik - x_jk)^2 - l_ij^2,
required to be = 0 on bars, <= 0 on cables and >= 0 on struts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

MEMBER_KINDS = ("bar", "cable", "strut")

#: slack when deciding whether a member constraint is satisfied;
#: floating residuals of exact solutions sit near 1e-15, so this is generous.
FEASIBILITY_TOL = 1e-9

FIXTURE_NAMES = ("3prism", "slingshot", "square", "triangle", "hinge", "molecule")


class FrameworkError(ValueError):
    """Raised for malformed framework documents or invalid inputs."""


@dataclass(frozen=True)
class FrameworkGraph:
    """Combinatorial part of a framework: node count, dimension, members.

    Members are (i, j, kind) triples with 1 <= i < j <= n, no duplicates.
    Node indices are 1-based throughout, matching the input format.
    """

    n: int
    d: int
    members: tuple[tuple[int, int, str], ...]

    def __post_init__(self):
        if self.n < 1:
            raise FrameworkError(f"node count must be positive, got {self.n}")
        if self.d < 1:
            raise FrameworkError(f"dimension must be positive, got {self.d}")
        seen = set()
        for i, j, kind in self.members:
            if not (1 <= i < j <= self.n):
                raise FrameworkError(f"member ({i}, {j}) out of range for n={self.n}")
            if (i, j) in seen:
                raise FrameworkError(f"duplicate member ({i}, {j})")
            if kind not in MEMBER_KINDS:
                raise FrameworkError(f"unknown member kind {kind!r}")
            seen.add((i, j))

    @property
    def m(self) -> int:
        return len(self.members)

    def kinds(self) -> tuple[str, ...]:
        return tuple(kind for _, _, kind in self.members)

    def with_kinds(self, kinds) -> "FrameworkGraph":
        """Same graph with the member kinds replaced (e.g. a tensegrity split)."""
        kinds = tuple(kinds)
        if len(kinds) != self.m:
            raise FrameworkError(f"expected {self.m} kinds, got {len(kinds)}")
        return FrameworkGraph(
            self.n, self.d,
            tuple((i, j, k) for (i, j, _), k in zip(self.members, kinds)),
        )


@dataclass(frozen=True)
class Configuration:
    """An n x d array of real coordinates; holds embeddings p and points x."""

    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2:
            raise FrameworkError(f"coordinates must be an n x d array, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise FrameworkError("non-finite coordinate in configuration")
        coords = coords.copy()
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
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        rest = np.asarray(self.rest_sq_lengths, dtype=float)
        if rest.shape != (self.graph.m,):
            raise FrameworkError(
                f"expected {self.graph.m} rest lengths, got shape {rest.shape}")
        if not np.all(np.isfinite(rest) & (rest > 0.0)):
            raise FrameworkError("all rest squared lengths must be positive and finite")
        rest = rest.copy()
        rest.setflags(write=False)
        object.__setattr__(self, "rest_sq_lengths", rest)

    @property
    def m(self) -> int:
        return self.graph.m


def _check_shape(graph: FrameworkGraph, x: Configuration) -> np.ndarray:
    coords = np.asarray(x.coords, dtype=float)
    if coords.shape != (graph.n, graph.d):
        raise FrameworkError(
            f"configuration shape {coords.shape} does not match ({graph.n}, {graph.d})")
    return coords


def squared_lengths(graph: FrameworkGraph, x: Configuration) -> np.ndarray:
    """Squared member lengths at x, one entry per member."""
    coords = _check_shape(graph, x)
    diffs = np.array([coords[i - 1] - coords[j - 1] for i, j, _ in graph.members])
    return np.einsum("ij,ij->i", diffs, diffs)


def build_constraints(graph: FrameworkGraph, p: Configuration,
                      rest_sq_lengths=None) -> MemberConstraintSystem:
    """Constraint system with rest lengths taken from the embedding p
    unless given explicitly."""
    if rest_sq_lengths is None:
        rest_sq_lengths = squared_lengths(graph, p)
    return MemberConstraintSystem(graph, np.asarray(rest_sq_lengths, dtype=float))


def evaluate_members(sys: MemberConstraintSystem, x: Configuration):
    """Residuals g_ij(x) and a per-member feasibility flag.

    Bars require |g| <= FEASIBILITY_TOL, cables g <= FEASIBILITY_TOL and
    struts g >= -FEASIBILITY_TOL.  Returns (residuals, feasible) as arrays
    of length m.
    """
    residuals = squared_lengths(sys.graph, x) - sys.rest_sq_lengths
    feasible = np.empty(sys.m, dtype=bool)
    for k, (_, _, kind) in enumerate(sys.graph.members):
        g = residuals[k]
        if kind == "bar":
            feasible[k] = abs(g) <= FEASIBILITY_TOL
        elif kind == "cable":
            feasible[k] = g <= FEASIBILITY_TOL
        else:
            feasible[k] = g >= -FEASIBILITY_TOL
    return residuals, feasible


def _integer(value, what: str) -> int:
    """value itself if it is a JSON integer: an int that is not a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FrameworkError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    """value as a float if it is a JSON number: an int or a float that is
    not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FrameworkError(f"{what} must be a number, got {value!r}")
    return float(value)


def _parse_document(doc: dict):
    if not isinstance(doc, dict):
        raise FrameworkError("framework document must be a JSON object")
    try:
        d = _integer(doc["dimension"], "'dimension'")
        nodes = doc["nodes"]
        members = doc["members"]
    except (KeyError, TypeError) as exc:
        raise FrameworkError(f"malformed framework document: {exc}") from exc
    if not isinstance(nodes, list) or not nodes:
        raise FrameworkError("'nodes' must be a nonempty list of coordinate rows")
    if not all(isinstance(row, list) for row in nodes):
        raise FrameworkError("each node must be a list of coordinates")
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

    triples = []
    rest = []
    explicit = False
    for entry in members:
        try:
            i, j = (_integer(entry[key], f"{key!r} of member {entry!r}") for key in "ij")
        except (KeyError, TypeError) as exc:
            raise FrameworkError(f"bad member entry {entry!r}") from exc
        kind = entry.get("kind", "bar")
        triples.append((i, j, kind))
        if "rest_sq_length" in entry:
            explicit = True
            rest.append(_number(entry["rest_sq_length"],
                                f"rest_sq_length of member {entry!r}"))
        else:
            rest.append(None)
    if explicit and any(r is None for r in rest):
        raise FrameworkError("either all members or none may carry rest_sq_length")
    metadata = {k: v for k, v in doc.items()
                if k not in ("dimension", "nodes", "members")}
    return d, coords, triples, (rest if explicit else None), metadata


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

    d, coords, triples, rest, metadata = _parse_document(doc)
    graph = FrameworkGraph(coords.shape[0], d, tuple(triples))
    p = Configuration(coords)
    sys = build_constraints(graph, p, rest)
    if metadata:
        sys.metadata.update(metadata)
    return graph, p, sys


def load_fixture(name: str):
    """Load one of the packaged example frameworks by name (e.g. '3prism')."""
    if name not in FIXTURE_NAMES:
        raise FrameworkError(f"unknown fixture {name!r}; available: {FIXTURE_NAMES}")
    text = resources.files("tensegrity.fixtures").joinpath(f"{name}.json").read_text()
    return load_framework(json.loads(text))
