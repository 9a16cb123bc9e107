"""The sparse polynomial core that RationalPoly and MultiPoly share."""

import copy
import pickle
import random

import numpy as np
import pytest

from tensegrity import ContinuationError, MultiPoly, RationalPoly, SymbolicError

VARIABLES = ("x", "y", "z")


def _random_pair(rng):
    """One polynomial with small integer coefficients, built as both types."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[tuple(rng.randint(0, 2) for _ in VARIABLES)] = rng.randint(-5, 5)
    return RationalPoly(VARIABLES, terms), MultiPoly(len(VARIABLES), terms)


def test_rational_and_complex_arithmetic_give_the_same_terms():
    # small integer coefficients keep every complex operation exact
    rng = random.Random(211)
    for _ in range(60):
        (ra, ma), (rb, mb) = _random_pair(rng), _random_pair(rng)
        results = [(ra + rb, ma + mb), (ra - rb, ma - mb), (ra * rb, ma * mb),
                   (ra ** 3, ma ** 3), (-ra, -ma), (ra * 3, ma * 3),
                   (2 - ra, 2 - ma), (ra + 1, ma + 1)]
        results += [(ra.diff(k), ma.diff(k)) for k in range(len(VARIABLES))]
        for r, m in results:
            assert {e: complex(c) for e, c in r.terms.items()} == m.terms
            assert 0 not in r.terms.values()
            assert 0 not in m.terms.values()


@pytest.mark.parametrize("make", [lambda t: RationalPoly(VARIABLES, t),
                                  lambda t: MultiPoly(len(VARIABLES), t)])
def test_cancellation_and_zero_scalars_give_empty_terms(make):
    a = make({(1, 0, 2): 3, (0, 0, 0): -1, (0, 1, 0): 2})
    assert (a - a).terms == {}
    assert (a * 0).terms == {}
    assert (0 * a).terms == {}
    assert (a + (-a)).is_zero()
    assert make({(1, 0, 0): 0}).terms == {}


@pytest.mark.parametrize("poly, error", [
    (RationalPoly(VARIABLES, {(1, 1, 0): 1}), SymbolicError),
    (MultiPoly(len(VARIABLES), {(1, 1, 0): 1}), ContinuationError),
])
def test_each_type_is_immutable_and_raises_its_own_error(poly, error):
    for name in ("terms", "ring"):
        with pytest.raises(AttributeError):
            setattr(poly, name, None)
    for clone in (copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert type(clone) is type(poly)
        assert (clone.ring, clone.terms) == (poly.ring, poly.terms)
    with pytest.raises(error):
        type(poly)(poly.ring, {(1, -1, 0): 1})
    with pytest.raises(error):
        type(poly)(poly.ring, {(1, 0): 1})
    # exponents are integers, never truncated, and not bools
    for exps in ((1.5, 0, 0), (2.0, 0, 0), ("a", 0, 0), ("2", 0, 0), (True, 0, 0),
                 (0, np.True_, 0), "100"):
        with pytest.raises(error):
            type(poly)(poly.ring, {exps: 1})
    # a coefficient is a finite number; an int too large for a float is one
    # only when the coefficients are exact
    bad = ["x", None, float("nan"), float("inf"), -float("inf"), complex(1, float("nan"))]
    for coeff in bad + ([10 ** 400] if error is ContinuationError else []):
        with pytest.raises(error, match="bad coefficient"):
            type(poly)(poly.ring, {(1, 0, 0): coeff})
    assert type(poly)(poly.ring, {tuple(np.arange(3)): 1}).terms == {(0, 1, 2): 1}
    for power in (-1, 1.5, True):
        with pytest.raises(error):
            poly ** power
    assert (poly ** np.int64(2)).terms == (poly * poly).terms
    other = RationalPoly(("u",), {(1,): 1}) if error is SymbolicError \
        else MultiPoly(1, {(1,): 1})
    with pytest.raises(error):
        poly + other
    # a variable index is an integer in [0, 3), never wrapped or truncated,
    # and a name must be one of the ring's
    for index in (-1, 3, 1.7, True, "1", "w", None):
        with pytest.raises(error):
            type(poly).variable(poly.ring, index)
        with pytest.raises(error):
            poly.diff(index)
    assert poly.diff(np.int64(1)).terms == poly.diff(1).terms == {(1, 0, 0): 1}
    assert type(poly).variable(poly.ring, np.int32(2)).terms == {(0, 0, 1): 1}
    # the size of a ring of complex polynomials is a nonnegative integer
    bad_rings = [("x", "x")] if error is SymbolicError else [2.7, True, -1, "3", None]
    for ring in bad_rings:
        with pytest.raises(error):
            type(poly)(ring)
    if error is ContinuationError:
        assert MultiPoly(np.int64(3)).nvars == 3
        assert type(MultiPoly(np.int64(3)).nvars) is int
        with pytest.raises(error):
            MultiPoly.variable(2.7, 0)
