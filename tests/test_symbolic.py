"""Exact polynomial ring, Buchberger, and containment verification."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

from tensegrity import (GroebnerBasis, PairBudgetError, RationalPoly,
                        SymbolicError, buchberger, normal_form_reduce,
                        ring_variables, symbolic_minors, verify_containment)
from tensegrity.ideals import (adjacent_minor_primes, adjacent_minors,
                               slingshot_equations, slingshot_member_constraints,
                               slingshot_primes)
from tensegrity.symbolic import _order_key, s_polynomial


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
    # any whitespace may stand around a fraction's slash
    for text in ("1\t/2*x", "1/\n2*x"):
        assert RationalPoly.parse(text, ("x", "y")) == x * Fraction(1, 2)


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
    assert f.diff("x").diff(0).project(("y",)) == RationalPoly.parse("2*y", ("y",))
    assert (f - f.diff("y") * y).project(("x",)) == RationalPoly.constant(("x",), 2)
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


# -- division kernel ----------------------------------------------------------


def _scan_leading(p, order):
    """Leading term by scanning every term, as the division loop did before
    the heap-ordered kernel."""
    n = len(p.variables)
    if order == "lex":
        key = lambda e: e  # noqa: E731
    else:
        key = lambda e: (sum(e), tuple(-e[k] for k in range(n - 1, -1, -1)))  # noqa: E731
    exps = max(p.terms, key=key)
    return exps, p.terms[exps]


def _list_scanning_division(f, G, order):
    """Reference division: rescans the dividend for its leading term and
    rebuilds it as p - factor * g at every step."""
    G = [g for g in G if not g.is_zero()]
    leads = [_scan_leading(g, order) for g in G]
    remainder = RationalPoly.zero(f.variables)
    p = f
    while not p.is_zero():
        ep, cp = _scan_leading(p, order)
        for g, (eg, cg) in zip(G, leads):
            if all(a <= b for a, b in zip(eg, ep)):
                shift = tuple(a - b for a, b in zip(ep, eg))
                p = p - RationalPoly(f.variables, {shift: cp / cg}) * g
                break
        else:
            lead = RationalPoly(f.variables, {ep: cp})
            remainder = remainder + lead
            p = p - lead
    return remainder


def _small_coefficient_poly(rng, variables, max_terms, max_deg):
    """Few distinct coefficients, so that terms often cancel exactly."""
    coeffs = (Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2))
    return RationalPoly(variables, {
        tuple(rng.randint(0, max_deg) for _ in variables): rng.choice(coeffs)
        for _ in range(rng.randint(1, max_terms))})


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_division_matches_the_list_scanning_loop(order):
    rng = random.Random(211 if order == "lex" else 223)
    variables = ("x", "y", "z")
    zero = RationalPoly.zero(variables)
    for case in range(150):
        G = [_small_coefficient_poly(rng, variables, 3, 2)
             for _ in range(rng.randint(1, 4))]
        if case % 3 == 0:
            G.insert(rng.randint(0, len(G)), zero)
        if case % 4 == 0:
            G = [_random_poly(rng, variables, max_deg=2) * Fraction(-7, 3)
                 for _ in range(rng.randint(1, 3))] + G
        f = zero if case % 10 == 0 else \
            _small_coefficient_poly(rng, variables, 8, 4)
        if case % 5 == 1:  # a combination of G cancels many terms
            f = f + sum((_small_coefficient_poly(rng, variables, 3, 2) * g
                         for g in G), zero)
        got = normal_form_reduce(f, G, order)
        want = _list_scanning_division(f, G, order)
        assert got.terms == want.terms
        assert list(got.terms) == list(want.terms)  # and in the same order
        assert all(type(c) is Fraction for c in got.terms.values())


def test_first_dividing_generator_wins():
    # Cox, Little & O'Shea, section 2.3: not a Groebner basis, so the
    # remainder depends on the order of the divisors
    variables = ("x", "y")
    f = RationalPoly.parse("x^2*y + x*y^2 + y^2", variables)
    g1 = RationalPoly.parse("x*y - 1", variables)
    g2 = RationalPoly.parse("y^2 - 1", variables)
    assert normal_form_reduce(f, [g1, g2], "lex") == \
        RationalPoly.parse("x + y + 1", variables)
    assert normal_form_reduce(f, [g2, g1], "lex") == \
        RationalPoly.parse("2*x + 1", variables)


def test_cancelled_terms_leave_no_remainder():
    variables = ("x", "y")
    f = RationalPoly.parse("x^2 - y^2", variables)
    g = RationalPoly.parse("3*x - 3*y", variables)
    for order in ("degrevlex", "lex"):
        assert normal_form_reduce(f, [g], order).terms == {}


def _to_sympy(p, symbols):
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
                for exps, c in p.terms.items()), sympy.Integer(0))


def test_normal_form_modulo_a_groebner_basis_matches_sympy():
    rng = random.Random(227)
    variables = ("x", "y", "z")
    symbols = sympy.symbols(variables)
    checked = 0
    for case in range(60):
        order = "lex" if case % 2 else "degrevlex"
        gens = [_random_poly(rng, variables, max_terms=3, max_deg=2)
                for _ in range(2)]
        if any(g.is_zero() for g in gens):
            continue
        gb = buchberger(gens, order=order)
        f = _random_poly(rng, variables, max_terms=6, max_deg=3)
        _, r = sympy.reduced(_to_sympy(f, symbols),
                             [_to_sympy(g, symbols) for g in gb.generators],
                             *symbols, order="lex" if order == "lex" else "grevlex")
        want = {tuple(m): Fraction(int(c.p), int(c.q))
                for m, c in sympy.Poly(r, *symbols).terms() if c != 0}
        assert gb.reduce(f).terms == want
        checked += 1
    assert checked >= 50


# -- Buchberger boundary and counters -----------------------------------------


def test_buchberger_rejects_an_unknown_order():
    x, = ring_variables(("x",))
    zero = RationalPoly.zero(("x",))
    for gens in ([], [zero], [x]):
        with pytest.raises(SymbolicError, match="order"):
            buchberger(gens, "bogus")
    with pytest.raises(SymbolicError, match="order"):
        normal_form_reduce(x, [x], "bogus")


@pytest.mark.parametrize("budget", [-1, 2.5, "10", True])
def test_buchberger_rejects_a_bad_pair_budget(budget):
    x, y = ring_variables(("x", "y"))
    with pytest.raises(SymbolicError, match="pair_budget") as info:
        buchberger([x * x + y, x * y], "lex", pair_budget=budget)
    assert not isinstance(info.value, PairBudgetError)


def test_buchberger_counts_pairs_and_basis_size():
    # pair (x^2 + y^2, x*y) reduces to y^3, which joins the basis; then
    # (x^2 + y^2, y^3) is coprime and skipped, and (x*y, y^3) reduces to 0
    variables = ("x", "y")
    gens = [RationalPoly.parse("x^2 + y^2", variables),
            RationalPoly.parse("x*y", variables)]
    basis = buchberger(gens, order="lex")
    assert (basis.pairs_processed, basis.pairs_skipped,
            basis.peak_basis_size) == (3, 1, 3)
    bare = type(basis)(basis.generators, basis.order)
    assert bare == basis and hash(bare) == hash(basis)
    empty = buchberger([], order="lex")
    assert (empty.pairs_processed, empty.pairs_skipped,
            empty.peak_basis_size) == (0, 0, 0)
    assert buchberger(gens, order="lex", pair_budget=3) == basis
    with pytest.raises(PairBudgetError):
        buchberger(gens, order="lex", pair_budget=2)


# -- exact coefficients -------------------------------------------------------


def test_integral_coefficients_are_ints():
    variables = ("x", "y", "z")
    x, y, z = ring_variables(variables)
    f = RationalPoly.parse("2*x^2*y - 3*z + 4/2 + 1/2*x + 1/2*x", variables)
    g = RationalPoly(variables, {(1, 0, 0): Fraction(6, 3), (0, 1, 0): 5,
                                 (0, 0, 1): 2.0, (0, 0, 0): "-7"})
    results = [f, g, f + g, f - g, f * g, f * 3, 2 - g, f ** 2]
    results += slingshot_member_constraints()
    results += symbolic_minors([[f, g, x - y], [z * 7, y * y, f + 1]], 2)
    for p in results:
        assert p.terms and {type(c) for c in p.terms.values()} == {int}
    half = RationalPoly.parse("1/2*x - 2/3", variables)
    assert {type(c) for c in half.terms.values()} == {Fraction}


def test_int_and_fraction_coefficients_compare_hash_and_print_alike():
    rng = random.Random(229)
    variables = ("x", "y", "z")
    for _ in range(40):
        p = _random_poly(rng, variables) * 12  # mostly integral coefficients
        # division by nothing returns the same terms with Fraction coefficients
        twin = normal_form_reduce(p, [])
        assert all(type(c) is Fraction for c in twin.terms.values())
        assert twin == p and hash(twin) == hash(p) and str(twin) == str(p)
    three = RationalPoly.constant(variables, 3)
    assert three == 3 == normal_form_reduce(three, []) == Fraction(3)


@pytest.mark.parametrize("lead", [2, -3])
def test_division_by_a_non_monic_integral_divisor_stays_exact(lead):
    rng = random.Random(233 + lead)
    variables = ("x", "y")
    symbols = sympy.symbols(variables)
    g = RationalPoly(variables, {(2, 0): lead, (1, 1): 3, (0, 1): 1, (0, 0): -1})
    for order in ("degrevlex", "lex"):
        for _ in range(20):
            f = RationalPoly(variables, {
                (rng.randint(0, 4), rng.randint(0, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 6))})
            # a single divisor is a Groebner basis, so the remainder is unique
            got = normal_form_reduce(f, [g], order)
            assert all(type(c) is Fraction for c in got.terms.values())
            _, r = sympy.reduced(_to_sympy(f, symbols), [_to_sympy(g, symbols)],
                                 *symbols,
                                 order="lex" if order == "lex" else "grevlex")
            want = {tuple(m): Fraction(int(c.p), int(c.q))
                    for m, c in sympy.Poly(r, *symbols).terms() if c != 0}
            assert got.terms == want


def test_minors_with_fractional_entries_match_sympy():
    rng = random.Random(251)
    variables = ("a", "b", "c")
    symbols = sympy.symbols(variables)
    coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 1, -2, 3)
    matrix = [[RationalPoly(variables, {
        tuple(rng.randint(0, 1) for _ in variables): rng.choice(coeffs)
        for _ in range(rng.randint(1, 3))}) for _ in range(5)] for _ in range(4)]
    minors = symbolic_minors(matrix, 4)
    assert len(minors) == 5
    types = set()
    for minor, cols in zip(minors, combinations(range(5), 4)):
        numeric = sympy.Matrix(
            4, 4, lambda i, j: _to_sympy(matrix[i][cols[j]], symbols))
        det = numeric.det(method="berkowitz")
        assert sympy.expand(det - _to_sympy(minor, symbols)) == 0
        types |= {type(c) for c in minor.terms.values()}
    assert types == {int, Fraction}


# -- boundary errors of the exact layer ---------------------------------------


def test_a_zero_denominator_is_a_symbolic_error():
    with pytest.raises(SymbolicError, match="zero denominator"):
        RationalPoly.parse("x^2 - 1/0", ("x",))
    x, = ring_variables(("x",))
    for zero in (0, Fraction(0), 0.0):
        with pytest.raises(SymbolicError, match="by zero"):
            x / zero
    assert x / 2 == x * Fraction(1, 2)


@pytest.mark.parametrize("r", [True, 1.5, "1", 0, 3])
def test_a_minor_size_is_an_integer_from_1_to_the_smaller_side(r):
    x, y = ring_variables(("x", "y"))
    with pytest.raises(SymbolicError, match="minor size must be an integer"):
        symbolic_minors([[x, y, x], [y, x, y]], r)


def test_minors_name_an_entry_that_is_not_a_polynomial():
    x, = ring_variables(("x",))
    with pytest.raises(SymbolicError, match=r"entry \(0, 0\).*: 1$"):
        symbolic_minors([[1]], 1)
    with pytest.raises(SymbolicError, match=r"entry \(1, 0\)"):
        symbolic_minors([[x, x], ["x", x]], 1)


@pytest.mark.parametrize("text", ["x^-1", "x^1/2", "x^y"])
def test_a_bad_exponent_asks_for_a_nonnegative_integer(text):
    with pytest.raises(SymbolicError, match="exponent must be a nonnegative integer"):
        RationalPoly.parse(text, ("x", "y"))


# -- prepared divisors --------------------------------------------------------


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_groebner_basis_reduction_reuses_no_state_across_bases(order):
    rng = random.Random(239 if order == "lex" else 241)
    variables = ("x", "y", "z")
    bases = []
    while len(bases) < 2:
        gens = [_random_poly(rng, variables, max_terms=3, max_deg=2)
                for _ in range(2)]
        if not any(g.is_zero() for g in gens):
            bases.append(buchberger(gens, order=order))
    assert bases[0] != bases[1]
    # not a Groebner basis: the first dividing generator must still win
    bare = GroebnerBasis((RationalPoly.parse("x*y - 1", variables),
                          RationalPoly.parse("y^2 - 1", variables)), order)
    bases.append(bare)
    for k in range(90):  # interleave reductions against the three bases
        gb = bases[k % 3]
        f = _random_poly(rng, variables, max_terms=6, max_deg=3)
        got = gb.reduce(f)
        want = normal_form_reduce(f, gb.generators, gb.order)
        assert got.terms == want.terms
        assert list(got.terms) == list(want.terms)
        assert gb.contains(f) == want.is_zero()


# -- one normal form per distinct generator ----------------------------------


def _reference_containment(I_gens, P_gens, order="degrevlex"):
    """The loop that reduces every generator, repeats included."""
    gb = buchberger(list(P_gens), order)
    remainders = tuple(gb.reduce(f) for f in I_gens)
    return all(r.is_zero() for r in remainders), remainders


def _typed_terms(poly):
    return [(e, type(c), c) for e, c in poly.terms.items()]


def _assert_same_as_reference(I_gens, P_gens, order="degrevlex"):
    contained, remainders = _reference_containment(I_gens, P_gens, order)
    report = verify_containment(I_gens, P_gens, order)
    assert report.contained == contained
    assert len(report.remainders) == len(remainders) == len(I_gens)
    for got, want in zip(report.remainders, remainders):
        assert got.variables == want.variables
        assert _typed_terms(got) == _typed_terms(want)
    worst = [r for r in remainders if not r.is_zero()]
    want_worst = (max(worst, key=lambda r: (len(r.terms), r.total_degree()))
                  if worst else None)
    assert report.worst_remainder == want_worst
    if want_worst is not None:
        assert _typed_terms(report.worst_remainder) == _typed_terms(want_worst)
    return report


def test_slingshot_containment_matches_the_loop_over_every_generator():
    equations = slingshot_equations()
    for prime in slingshot_primes():
        assert _assert_same_as_reference(equations, prime).contained


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_repeated_negated_and_zero_generators_give_the_loops_remainders(order, seed):
    rng = random.Random(700 + seed)
    variables = ("x", "y", "z")
    x, y, _ = ring_variables(variables)
    # both vanish where x = y = 0, so the ideal is proper
    prime = [_random_poly(rng, variables, max_terms=3, max_deg=2) * v
             for v in (x, y)]
    base = [_random_poly(rng, variables) for _ in range(5)]
    zero = RationalPoly.zero(variables)
    gens = list(base)
    for _ in range(3):
        f, g, h, k = (rng.choice(base) for _ in range(4))
        # (h / 2) * 2 equals h with integral Fraction coefficients
        gens += [f, -g, zero, (h / 2) * 2, -((k / 3) * 3)]
    rng.shuffle(gens)
    report = _assert_same_as_reference(gens, prime, order)
    assert not report.contained


def test_each_generator_is_reduced_once_up_to_sign(monkeypatch):
    calls = [0]
    reduce = GroebnerBasis.reduce

    def counted(self, f):
        calls[0] += 1
        return reduce(self, f)

    monkeypatch.setattr(GroebnerBasis, "reduce", counted)
    equations = slingshot_equations()
    assert len(equations) == 102 and len(set(equations)) == 39
    for prime in slingshot_primes():
        calls[0] = 0
        verify_containment(equations, prime)
        assert calls[0] == 23
    for prime in adjacent_minor_primes():
        calls[0] = 0
        verify_containment(adjacent_minors(), prime)
        assert calls[0] == 4
    x, y = ring_variables(("x", "y"))
    calls[0] = 0
    report = verify_containment([x + y, -x - y, x + y, x * 0, x * 0], [x])
    assert calls[0] == 2
    assert [str(r) for r in report.remainders] == ["y", "-y", "y", "0", "0"]


@pytest.mark.parametrize("text", ["x**2", "x***2", "2**x", "*x - 2",
                                  "x^2 + *y", "x * * y"])
def test_a_stray_star_is_refused_and_powers_are_caret(text):
    # a skipped '*' read x**2 as 2*x and *x - 2 as x - 2
    with pytest.raises(SymbolicError, match=r"'\*' does not follow a factor; "
                                            r"powers are written '\^'"):
        RationalPoly.parse(text, ("x", "y"))


@pytest.mark.parametrize("text", ["x^4/2", "3*x^4/2", "x^6/3 + y"])
def test_a_fraction_after_a_caret_is_refused(text):
    # 4/2 was read as the exponent 2, so x^4/2 became x^2
    with pytest.raises(SymbolicError, match=r"exponent must be a nonnegative "
                                            r"integer; a fraction goes in front, "
                                            r"as in 1/2\*x\^4"):
        RationalPoly.parse(text, ("x", "y"))
    assert RationalPoly.parse("3/2*x^4 + 1/3*x^6", ("x", "y")) == \
        RationalPoly(("x", "y"), {(4, 0): Fraction(3, 2), (6, 0): Fraction(1, 3)})


def test_a_constant_polynomial_hashes_as_its_coefficient():
    variables = ("x", "y")
    x, _ = ring_variables(variables)
    for value in (0, 2, -3, Fraction(1, 2), Fraction(4, 2)):
        for c in (RationalPoly.constant(variables, value), x - x + value):
            assert c == value and hash(c) == hash(value)
            assert len({c, value}) == 1 and value in {c} and c in {value}
    assert hash(RationalPoly.zero(variables)) == hash(0)
    p = x * x + 1
    assert hash(p) == hash(p) == hash(RationalPoly.parse("x^2 + 1", variables))


# -- packed monomial keys -----------------------------------------------------


def _tuple_key(order, exps):
    """The tuple heap key that the packed int keys replace."""
    if order == "degrevlex":
        return (-sum(exps),) + exps[::-1]
    return tuple(-e for e in exps)


@pytest.mark.parametrize("order", ["degrevlex", "lex"])
def test_packed_keys_sort_add_and_divide_like_exponent_tuples(order):
    rng = random.Random(263 if order == "lex" else 269)
    n = 4
    vectors = [(0,) * n, (0,) * n]
    # small exponents, exponents past a 16-bit field and past a 64-bit word
    for top in (3, 1 << 17, 1 << 70):
        vectors += [tuple(rng.choice((0, rng.randint(0, top))) for _ in range(n))
                    for _ in range(30)]
    packing = _order_key(order, n, 2 * max(map(sum, vectors)))
    key = packing.key

    def packed(exps):
        return -key(exps) if order == "lex" else key(exps)

    for a in vectors:
        assert packing.exponents(key(a)) == a
        for b in vectors:
            assert (key(a) < key(b)) == (_tuple_key(order, a) < _tuple_key(order, b))
            assert (key(a) == key(b)) == (a == b)
            total = tuple(u + v for u, v in zip(a, b))
            assert key(a) + key(b) == key(total)
            divides = all(u <= v for u, v in zip(a, b))
            assert ((packed(b) - packed(a)) & packing.guard == 0) == divides
            assert (packed(total) - packed(a)) & packing.guard == 0


def test_division_widens_the_fields_for_exponents_that_grow():
    x, y = ring_variables(("x", "y"))
    assert normal_form_reduce(x ** 70000, [x - y]) == y ** 70000
    # lex reduction raises the power of y past the field its inputs need
    assert normal_form_reduce(x ** 3, [x - y ** 40000], "lex") == y ** 120000
    assert normal_form_reduce(x ** 5 * y, [x - y ** 3], "lex") == y ** 16
    # and so can an S-polynomial's: x*y^3 - 1 reduces to y^6 - 1
    gens = [x - y ** 3, x ** 2 - 1]
    symbols = sympy.symbols(("x", "y"))
    want = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    basis = buchberger(gens, "lex")
    assert [_to_sympy(g, symbols) for g in reversed(basis.generators)] == list(want.exprs)


def test_minors_with_exponents_past_one_field_match_sympy():
    variables = ("a", "b", "c")
    symbols = sympy.symbols(variables)
    a, b, c = ring_variables(variables)
    matrix = [[a ** 70000 + b, c ** (1 << 33), a * b - 2],
              [b ** 3, a ** 65536 - c, c ** 5 + 1],
              [a + b + c, b ** (1 << 40), a ** 2 * c - b],
              [c - 1, a ** 3, b ** 65535]]
    minors = symbolic_minors(matrix, 3)
    assert len(minors) == 4
    for minor, rows in zip(minors, combinations(range(4), 3)):
        numeric = sympy.Matrix(
            3, 3, lambda i, j: _to_sympy(matrix[rows[i]][j], symbols))
        det = numeric.det(method="berkowitz")
        assert sympy.expand(det - _to_sympy(minor, symbols)) == 0
