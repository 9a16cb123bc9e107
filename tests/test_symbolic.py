"""Exact polynomial ring, Buchberger, and containment verification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from tensegrity import (PairBudgetError, RationalPoly, SymbolicError,
                        buchberger, normal_form_reduce, ring_variables,
                        symbolic_minors, verify_containment)
from tensegrity.symbolic import s_polynomial


def _random_poly(rng, variables, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    poly = RationalPoly(variables, {e: c for e, c in terms.items() if c})
    return poly


def test_parse_print_round_trip():
    rng = random.Random(101)
    variables = ("x", "y", "z")
    for _ in range(60):
        p = _random_poly(rng, variables)
        if p.is_zero():
            continue
        assert RationalPoly.parse(str(p), variables) == p


def test_parse_handles_fractions_and_signs():
    x, y = ring_variables(("x", "y"))
    p = RationalPoly.parse("-x^2*y + 3/4*x - 2", ("x", "y"))
    assert p == -(x ** 2) * y + x * Fraction(3, 4) - 2
    assert str(p) == "-x^2*y + 3/4*x - 2"


def test_exact_arithmetic_matches_pointwise():
    rng = random.Random(103)
    variables = ("a", "b")
    for _ in range(40):
        f = _random_poly(rng, variables)
        g = _random_poly(rng, variables)
        pt = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
              Fraction(rng.randint(-5, 5), rng.randint(1, 3))]
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)
        assert (f - g).evaluate(pt) == f.evaluate(pt) - g.evaluate(pt)


def test_differentiation_and_substitution():
    x, y = ring_variables(("x", "y"))
    f = x ** 2 * y - y * 3 + 2
    assert f.diff("x") == x * y * 2
    assert f.diff("y") == x ** 2 - 3
    pinned = f.substitute({"y": 0})
    assert pinned == RationalPoly.constant(("x", "y"), 2)
    assert pinned.project(("x",)) == RationalPoly.constant(("x",), 2)
    with pytest.raises(SymbolicError):
        (x * y).project(("x",))  # y survives, cannot be eliminated


def test_combinations_of_generators_reduce_to_zero():
    rng = random.Random(107)
    variables = ("x", "y", "z")
    for _ in range(100):
        g1 = _random_poly(rng, variables, max_deg=2)
        g2 = _random_poly(rng, variables, max_deg=2)
        if g1.is_zero() or g2.is_zero():
            continue
        basis = buchberger([g1, g2], order="degrevlex")
        a = _random_poly(rng, variables, max_deg=1)
        b = _random_poly(rng, variables, max_deg=1)
        member = a * g1 + b * g2
        assert basis.reduce(member).is_zero()


def test_s_polynomials_of_basis_reduce_to_zero():
    variables = ("x", "y", "z")
    gens = [RationalPoly.parse(s, variables) for s in
            ("x^2 + y^2", "x*y", "x*z - y^2")]
    for order in ("degrevlex", "lex"):
        basis = buchberger(gens, order=order)
        polys = list(basis.generators)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                s = s_polynomial(polys[i], polys[j], order)
                assert normal_form_reduce(s, polys, order).is_zero()


def test_known_reduced_basis():
    variables = ("x", "y")
    gens = [RationalPoly.parse("x^2 + y^2", variables),
            RationalPoly.parse("x*y", variables)]
    basis = buchberger(gens, order="lex")
    expected = {RationalPoly.parse(s, variables)
                for s in ("x^2 + y^2", "x*y", "y^3")}
    assert set(basis.generators) == expected


def test_basis_is_independent_of_generator_order():
    rng = random.Random(109)
    variables = ("x", "y", "z")
    gens = [RationalPoly.parse(s, variables) for s in
            ("x*y - z", "y*z - x", "x*z - y")]
    reference = buchberger(gens, order="degrevlex")
    for _ in range(5):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert set(buchberger(shuffled, order="degrevlex").generators) == \
            set(reference.generators)


def test_membership_decisions():
    variables = ("x", "y")
    x, y = ring_variables(variables)
    basis = buchberger([x ** 2 - 1, y - x], order="lex")
    assert basis.contains(x ** 2 - 1)
    assert basis.contains((y - x) * (x + 3) + (x ** 2 - 1) * y)
    assert not basis.contains(x + 1)


def test_minors_match_determinants_at_rational_points():
    rng = random.Random(113)
    variables = tuple(f"m{i}{j}" for i in range(3) for j in range(4))
    gens = dict(zip(variables, ring_variables(variables)))
    matrix = [[gens[f"m{i}{j}"] for j in range(4)] for i in range(3)]
    minors = symbolic_minors(matrix, 2)
    assert len(minors) == 18  # C(3,2) * C(4,2)
    for _ in range(5):
        point = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for v in variables}
        values = [point[v] for v in variables]
        numeric = sympy.Matrix(3, 4, lambda i, j: sympy.Rational(
            point[f"m{i}{j}"].numerator, point[f"m{i}{j}"].denominator))
        k = 0
        for rows in combinations(range(3), 2):
            for cols in combinations(range(4), 2):
                det = numeric[list(rows), list(cols)].det()
                value = minors[k].evaluate(values)
                assert sympy.Rational(value.numerator, value.denominator) == det
                k += 1


def test_pair_budget_aborts():
    variables = ("x", "y", "z")
    gens = [RationalPoly.parse(s, variables) for s in
            ("x^3 - 2*x*y", "x^2*y - 2*y^2 + x", "z^2 - x*y")]
    with pytest.raises(PairBudgetError):
        buchberger(gens, order="degrevlex", pair_budget=1)


def test_verify_containment_reports_remainders():
    variables = ("x", "y")
    x, y = ring_variables(variables)
    report = verify_containment([x * y, x ** 2], [x])
    assert report.contained
    assert report.worst_remainder is None
    report = verify_containment([x + y], [x])
    assert not report.contained
    assert report.worst_remainder == y


def test_mixed_rings_are_rejected():
    x, = ring_variables(("x",))
    u, = ring_variables(("u",))
    with pytest.raises(SymbolicError):
        _ = x + u
    with pytest.raises(SymbolicError):
        buchberger([x, u])
