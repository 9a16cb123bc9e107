"""Reference ideals for the structured-matrix worked examples.

Two catalogs live here: the adjacent 2x2 minors of a generic 2x5 matrix
with the five primes their variety decomposes into, and the slingshot
framework (5 nodes, 7 bars, pinned to a moving frame) with its symbolic
rigidity matrix, member constraints, and eight component primes.  The
slingshot matrix is stored as displayed and derived from the fixture; the
two must agree exactly.
"""

from __future__ import annotations

from .framework import load_fixture, member_polynomials
from .rigidity import _pinned_coordinates, symbolic_rigidity_matrix
from .symbolic import RationalPoly, SymbolicError, ring_variables, symbolic_minors

# -- adjacent minors of the generic 2 x 5 matrix ---------------------------

TWO_BY_FIVE_VARIABLES = ("x11", "x12", "x13", "x14", "x15",
                         "x21", "x22", "x23", "x24", "x25")

_X = dict(zip(TWO_BY_FIVE_VARIABLES, ring_variables(TWO_BY_FIVE_VARIABLES)))


def column_minor(a: int, b: int) -> RationalPoly:
    """2x2 minor on columns a < b (1-based): x1a*x2b - x1b*x2a."""
    if not 1 <= a < b <= 5:
        raise SymbolicError("columns must satisfy 1 <= a < b <= 5")
    return _X[f"x1{a}"] * _X[f"x2{b}"] - _X[f"x1{b}"] * _X[f"x2{a}"]


def adjacent_minors() -> list:
    """The four minors on consecutive column pairs."""
    return [column_minor(a, a + 1) for a in range(1, 5)]


def adjacent_minor_primes() -> tuple:
    """The five primes whose intersection cuts out the adjacent-minor
    variety: zero third column with rank-1 outer blocks, and the four
    companions obtained by shifting the zero/rank-1 pattern."""
    x = _X
    return (
        [column_minor(1, 2), x["x13"], x["x23"], column_minor(4, 5)],
        [column_minor(1, 2), column_minor(1, 3), column_minor(2, 3),
         x["x14"], x["x24"]],
        [x["x12"], x["x22"], x["x14"], x["x24"]],
        [x["x12"], x["x22"], column_minor(3, 4), column_minor(3, 5),
         column_minor(4, 5)],
        [column_minor(a, b) for a in range(1, 5) for b in range(a + 1, 6)],
    )


# -- slingshot --------------------------------------------------------------

#: coordinates that pinning to the moving frame sends to zero
SLINGSHOT_PINNED = {"x11": 0, "x12": 0, "x22": 0}

#: coordinates that stay free after pinning
SLINGSHOT_VARIABLES = ("x21", "x31", "x32", "x41", "x42", "x51", "x52")


def _slingshot():
    """The slingshot's constraint system and coordinate matrix: x_ik, or 0 if pinned."""
    graph, _, sys = load_fixture("slingshot")
    return sys, _pinned_coordinates(graph.n, graph.d, RationalPoly, SLINGSHOT_VARIABLES)


def slingshot_member_constraints() -> list:
    """The seven bar constraints in the pinned coordinates."""
    return member_polynomials(*_slingshot())


def slingshot_matrix_derived() -> list:
    """Half the member-constraint Jacobian, pinned coordinates set to zero:
    7 rows (bars) by 10 columns (all node coordinates, pinned included)."""
    sys, coords = _slingshot()
    return symbolic_rigidity_matrix(sys.graph, coords)


_MATRIX_ROWS = (
    ("-x21", "0", "x21", "0", "0", "0", "0", "0", "0", "0"),
    ("-x31", "-x32", "0", "0", "x31", "x32", "0", "0", "0", "0"),
    ("-x41", "-x42", "0", "0", "0", "0", "x41", "x42", "0", "0"),
    ("0", "0", "x21 - x31", "-x32", "-x21 + x31", "x32", "0", "0", "0", "0"),
    ("0", "0", "x21 - x41", "-x42", "0", "0", "-x21 + x41", "x42", "0", "0"),
    ("0", "0", "0", "0", "x31 - x51", "x32 - x52", "0", "0",
     "-x31 + x51", "-x32 + x52"),
    ("0", "0", "0", "0", "0", "0", "x41 - x51", "x42 - x52",
     "-x41 + x51", "-x42 + x52"),
)


def slingshot_matrix() -> list:
    """The stored 7x10 symbolic rigidity matrix of the pinned slingshot."""
    return [[RationalPoly.parse(entry, SLINGSHOT_VARIABLES) for entry in row]
            for row in _MATRIX_ROWS]


def slingshot_minors() -> list:
    """All 120 minors of size 7, zero ones included.

    The stored matrix is checked against the independent derivation from
    the member constraints before any minor is expanded.
    """
    stored = slingshot_matrix()
    derived = slingshot_matrix_derived()
    for r, (row_s, row_d) in enumerate(zip(stored, derived)):
        for c, (a, b) in enumerate(zip(row_s, row_d)):
            if a != b:
                raise SymbolicError(
                    f"stored matrix disagrees with the derivation at "
                    f"({r}, {c}): {a} vs {b}")
    return symbolic_minors(stored, 7)


def slingshot_equations() -> list:
    """Member constraints plus all nonzero 7x7 minors (102 polynomials)."""
    minors = [m for m in slingshot_minors() if not m.is_zero()]
    return slingshot_member_constraints() + minors


def slingshot_primes() -> tuple:
    """The eight component primes of the slingshot equations."""
    texts = (
        ("x52", "x51 + 2", "x42 - 1", "x41 + 2", "x32 + 1", "x31 + 2", "x21 + 1"),
        ("x52", "x51 + 2", "x42 + 1", "x41 + 2", "x32 - 1", "x31 + 2", "x21 + 1"),
        ("x42 + 1", "x41 + 2", "x32 + 1", "x31 + 2", "x21 + 1",
         "x51^2 + x52^2 + 4*x51 + 2*x52 + 4"),
        ("x42 - 1", "x41 + 2", "x32 - 1", "x31 + 2", "x21 + 1",
         "x51^2 + x52^2 + 4*x51 - 2*x52 + 4"),
        ("x52", "x51 - 2", "x42 - 1", "x41 - 2", "x32 + 1", "x31 - 2", "x21 - 1"),
        ("x52", "x51 - 2", "x42 + 1", "x41 - 2", "x32 - 1", "x31 - 2", "x21 - 1"),
        ("x42 + 1", "x41 - 2", "x32 + 1", "x31 - 2", "x21 - 1",
         "x51^2 + x52^2 - 4*x51 + 2*x52 + 4"),
        ("x42 - 1", "x41 - 2", "x32 - 1", "x31 - 2", "x21 - 1",
         "x51^2 + x52^2 - 4*x51 - 2*x52 + 4"),
    )
    return tuple([RationalPoly.parse(t, SLINGSHOT_VARIABLES) for t in gens]
                 for gens in texts)


def slingshot_displayed_minor() -> RationalPoly:
    """The degree-7 minor quoted as a sample of the 95 nonzero ones."""
    return RationalPoly.parse(
        "x21^2*x32^2*x41*x42^2 - x21^2*x31*x32*x42^3 - x21^2*x32^2*x42^2*x51"
        " + x21^2*x32*x42^3*x51 - x21^2*x32^2*x41*x42*x52"
        " + 2*x21^2*x31*x32*x42^2*x52 - x21^2*x32*x41*x42^2*x52"
        " + x21^2*x32^2*x42*x51*x52 - x21^2*x32*x42^2*x51*x52"
        " - x21^2*x31*x32*x42*x52^2 + x21^2*x32*x41*x42*x52^2",
        SLINGSHOT_VARIABLES)
