"""The worked structured-matrix ideals: adjacent minors and the slingshot."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy

from tensegrity import (RationalPoly, buchberger, load_fixture, normal_form_reduce,
                        ring_variables, symbolic_minors, verify_containment)
from tensegrity.ideals import (SLINGSHOT_PINNED, SLINGSHOT_VARIABLES,
                               adjacent_minor_primes,
                               adjacent_minors, column_minor,
                               slingshot_displayed_minor, slingshot_equations,
                               slingshot_matrix, slingshot_matrix_derived,
                               slingshot_member_constraints, slingshot_minors,
                               slingshot_primes)
from tensegrity.rigidity import symbolic_rigidity_matrix


def test_adjacent_minors_shape():
    minors = adjacent_minors()
    assert len(minors) == 4
    for k, m in enumerate(minors, start=1):
        assert m == column_minor(k, k + 1)
        assert m.total_degree() == 2


def test_adjacent_minors_contained_in_all_five_primes():
    minors = adjacent_minors()
    for prime in adjacent_minor_primes():
        report = verify_containment(minors, prime)
        assert report.contained


def test_nonmember_produces_a_remainder():
    # the full-rank minor on columns (1, 5) is not in the component that
    # kills the middle column
    p3 = adjacent_minor_primes()[2]
    report = verify_containment([column_minor(1, 5)], p3)
    assert not report.contained
    assert report.worst_remainder is not None


def test_stored_matrix_equals_derived():
    stored = slingshot_matrix()
    derived = slingshot_matrix_derived()
    assert len(stored) == len(derived) == 7
    for row_s, row_d in zip(stored, derived):
        assert list(row_s) == list(row_d)


def test_member_constraints_are_the_fixtures_bars():
    """The slingshot's graph and rest lengths come from its fixture, so an
    edit there shows here."""
    texts = ("x21^2 - 1", "x31^2 + x32^2 - 5", "x41^2 + x42^2 - 5",
             "x21^2 - 2*x21*x31 + x31^2 + x32^2 - 2",
             "x21^2 - 2*x21*x41 + x41^2 + x42^2 - 2",
             "x31^2 + x32^2 - 2*x31*x51 + x51^2 - 2*x32*x52 + x52^2 - 1",
             "x41^2 + x42^2 - 2*x41*x51 + x51^2 - 2*x42*x52 + x52^2 - 1")
    assert [str(g) for g in slingshot_member_constraints()] == list(texts)


def test_pinned_entries_are_dropped():
    for poly in slingshot_member_constraints():
        for name in SLINGSHOT_PINNED:
            assert name not in poly.variables


def test_slingshot_minor_counts():
    minors = slingshot_minors()
    assert len(minors) == 120
    nonzero = [m for m in minors if not m.is_zero()]
    assert len(nonzero) == 95
    assert len(set(nonzero)) == 32


def test_displayed_minor_appears_up_to_sign():
    shown = slingshot_displayed_minor()
    assert shown.total_degree() == 7
    nonzero = [m for m in slingshot_minors() if not m.is_zero()]
    hits = [k for k, m in enumerate(nonzero) if m == shown or m == -shown]
    assert hits


def test_equation_count():
    assert len(slingshot_equations()) == 102


def test_all_equations_in_every_prime():
    equations = slingshot_equations()
    primes = slingshot_primes()
    assert len(primes) == 8
    for prime in primes:
        report = verify_containment(equations, prime)
        assert report.contained


def test_primes_vanish_on_their_own_point():
    # each linear prime pins a concrete configuration; the member equations
    # must vanish there too
    for prime in slingshot_primes():
        if any(g.total_degree() > 1 for g in prime):
            continue
        point = {}
        for g in prime:
            terms = dict(g.terms)
            const = -terms.pop((0,) * len(g.variables), Fraction(0))
            (exps, coeff), = terms.items()
            name = g.variables[exps.index(1)]
            point[name] = const / coeff
        values = [point[v] for v in prime[0].variables]
        for eq in slingshot_equations():
            assert eq.evaluate(values) == 0


def _bareiss_determinant(matrix):
    """Fraction-free Gaussian elimination with row swaps: each division by
    the previous pivot is exact."""
    a = [list(row) for row in matrix]
    n, sign, previous = len(a), 1, Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / previous
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


def test_bareiss_determinant_of_a_small_matrix():
    # 2*(1*3 - 0) - 1*(0*3 - 0) + 0 = 6, with a zero pivot forcing a swap
    assert _bareiss_determinant([[0, 1, 0], [2, 1, 0], [1, 5, 3]]) == -6
    assert _bareiss_determinant([[1, 2], [2, 4]]) == 0


def test_every_slingshot_minor_matches_a_bareiss_determinant():
    rng = random.Random(307)
    matrix = slingshot_matrix()
    minors = slingshot_minors()
    for _ in range(3):
        # no zero coordinate, so that only the 25 zero minors vanish
        point = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 6)) for _ in SLINGSHOT_VARIABLES]
        values = [[entry.evaluate(point) for entry in row] for row in matrix]
        nonzero = 0
        for minor, cols in zip(minors, combinations(range(10), 7),
                               strict=True):
            det = _bareiss_determinant([[row[c] for c in cols]
                                        for row in values])
            assert minor.evaluate(point) == det
            nonzero += det != 0
        assert nonzero == 95


def test_groebner_generators_keep_integral_coefficients_as_ints():
    types = Counter(type(c) for prime in slingshot_primes()
                    for g in buchberger(prime).generators
                    for c in g.terms.values())
    assert types == {int: 112}
    # a coefficient that is not integral stays a Fraction
    x = RationalPoly.parse("2*x - 1", ("x",))
    (g,) = buchberger([x]).generators
    assert g.terms == {(1,): 1, (0,): Fraction(-1, 2)}
    assert [type(c) for c in g.terms.values()] == [int, Fraction]


# -- the 3-prism's singular locus ---------------------------------------------

PRISM_VARIABLES = tuple(f"{axis}{i}" for i in (4, 5, 6) for axis in "xyz")


def _prism_coordinates():
    """The 3-prism's coordinate matrix with its bottom triangle fixed at
    (0,0,0), (1,0,0), (0,1,0) and x4, ..., z6 free."""
    fixed = [[RationalPoly.constant(PRISM_VARIABLES, c) for c in node]
             for node in ((0, 0, 0), (1, 0, 0), (0, 1, 0))]
    gens = iter(ring_variables(PRISM_VARIABLES))
    return fixed + [[next(gens) for _ in range(3)] for _ in range(3)]


def _prism_determinant():
    """The 9x9 block of the symbolic rigidity matrix on the nine members
    that are not bottom edges and the coordinates of nodes 4, 5, 6, and
    its determinant."""
    graph, p, _ = load_fixture("3prism")
    matrix = symbolic_rigidity_matrix(graph, _prism_coordinates())
    block = [row[9:] for row, i, j in zip(matrix, graph.heads.tolist(),
                                          graph.tails.tolist()) if max(i, j) >= 3]
    assert len(block) == 9
    det, = symbolic_minors(block, 9)
    return block, det, p


def _face_concurrency(faces):
    """The determinant of the four faces' plane coordinates, each the 3x3
    minors of its nodes' homogeneous coordinates: zero when the four planes
    meet in a point."""
    coords = _prism_coordinates()
    one = RationalPoly.constant(PRISM_VARIABLES, 1)
    planes = [symbolic_minors([coords[int(v) - 1] + [one] for v in face], 3)
              for face in faces]
    det, = symbolic_minors(planes, 4)
    return det


def test_the_prism_determinant_is_one_irreducible_sextic():
    block, det, _ = _prism_determinant()
    assert (len(det.terms), det.total_degree()) == (37, 6)
    symbols = sympy.symbols(PRISM_VARIABLES)
    names = dict(zip(PRISM_VARIABLES, symbols))
    want = sympy.Poly(sympy.Matrix([[sympy.sympify(str(e), locals=names) for e in row]
                                    for row in block]).det(method="domain-ge"), *symbols)
    assert want == sympy.Poly(sympy.sympify(str(det), locals=names), *symbols)
    _, factors = want.factor_list()
    assert [k for _, k in factors] == [1]


@pytest.mark.parametrize("faces", [("123", "145", "256", "346"),
                                   ("456", "125", "236", "314")])
def test_the_prism_determinant_lies_in_each_face_concurrency_ideal(faces):
    _, det, _ = _prism_determinant()
    concurrency = _face_concurrency(faces)
    assert (len(concurrency.terms), concurrency.total_degree()) == (37, 6)
    assert normal_form_reduce(det, [concurrency]).is_zero()


def test_the_prism_determinant_vanishes_at_the_fixture():
    """At the affine image of the fixture that sends its bottom triangle to
    the fixed one, and not after one node moves."""
    _, det, p = _prism_determinant()
    assert max(abs(c) for c in det.terms.values()) == 2
    a, b, c = p.coords[:3]
    u, v = b - a, c - a
    image = (p.coords - a) @ np.linalg.inv(np.column_stack([u, v, np.cross(u, v)])).T
    assert np.allclose(image[:3], [[0, 0, 0], [1, 0, 0], [0, 1, 0]], atol=1e-15)
    top = image[3:].reshape(-1)
    assert abs(det.evaluate([Fraction(t) for t in top])) <= 1e-14
    top[0] += 0.1
    assert abs(det.evaluate([Fraction(t) for t in top])) >= 1e-2
