"""The worked structured-matrix ideals: adjacent minors and the slingshot."""

from fractions import Fraction

from tensegrity import verify_containment
from tensegrity.ideals import (SLINGSHOT_PINNED, adjacent_minor_primes,
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
