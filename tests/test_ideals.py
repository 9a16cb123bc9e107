"""The worked structured-matrix ideals: adjacent minors and the slingshot."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

from tensegrity import RationalPoly, buchberger, verify_containment
from tensegrity.ideals import (SLINGSHOT_PINNED, SLINGSHOT_VARIABLES,
                               adjacent_minor_primes,
                               adjacent_minors, column_minor,
                               slingshot_displayed_minor, slingshot_equations,
                               slingshot_matrix, slingshot_matrix_derived,
                               slingshot_member_constraints, slingshot_minors,
                               slingshot_primes)


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
