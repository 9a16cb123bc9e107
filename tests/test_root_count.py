"""An exact root count from the Groebner staircase, as an oracle for the tracker.

For a zero-dimensional ideal, the number of roots counted with multiplicity
is the number of standard monomials of a Groebner basis: those that no
leading monomial divides (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, ch. 5 section 3).  A total-degree solve that finds fewer
distinct nonsingular roots than that count has lost one.
"""

import itertools

import numpy as np
import pytest
import sympy

from tensegrity import MultiPoly, PolySystem, RationalPoly, solve_total_degree
from tensegrity.symbolic import buchberger


def standard_monomial_count(leading, nvars):
    """Number of exponent vectors that no vector of `leading` divides, or
    None when some variable has no pure power among them (1 counts as every
    variable's zeroth power); without one the ideal is not zero-dimensional."""
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leading if e[i] == sum(e)]
        if not pure:
            return None
        bounds.append(min(pure))
    return sum(not any(all(a >= b for a, b in zip(e, lead)) for lead in leading)
               for e in itertools.product(*map(range, bounds)))


def _count(variables, equations):
    basis = buchberger([RationalPoly.parse(text, variables) for text in equations])
    return standard_monomial_count([g.leading()[0] for g in basis.generators],
                                   len(variables))


def _sympy_count(variables, equations):
    symbols = sympy.symbols(variables)
    basis = sympy.groebner([sympy.sympify(text.replace("^", "**")) for text in equations],
                           *symbols, order="grevlex")
    return standard_monomial_count(
        [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs],
        len(variables))


# (variables, equations, solve seed, exact count): the cubic, fractional and
# quintic systems of tools/write_reports.py, then systems 1, 2 and 8 of the
# deform-solve benchmark's dense generator at seeds 34, 45 and 102, each
# solved at its seed
X3 = ["x1", "x2", "x3"]
X4 = ["x1", "x2", "x3", "x4"]
SYSTEMS = {
    "cubic": (["x"], ["x^3 - 7*x^2 + 17*x - 15"], 0, 3),
    "fractional": (["x", "y"], ["x^2 + 1/3*y^2 - 2", "x*y - 1/2*x + 3/4"], 0, 4),
    "quintic": (["x", "y", "z"], ["x^5 - 2*x*y + 1/3*z^2 - 1", "y^5 + 3/2*x*z - y + 2",
                                  "z^3 - x*y*z + 1/5*x - 3/4"], 0, 75),
    "seed34_system1": (X3, [
        "5 - 6*x3 - 4*x3^2 - 5*x3^3 - 1*x2 - 9*x2*x3 + 8*x2*x3^2 + 5*x2^2 - 7*x2^2*x3"
        " + 1*x2^3 - 4*x1 + 5*x1*x3 + 8*x1*x3^2 - 4*x1*x2 - 2*x1*x2*x3 + 8*x1*x2^2"
        " + 6*x1^2 - 2*x1^2*x3 - 1*x1^2*x2 - 8*x1^3",
        "9 - 2*x3 + 5*x3^2 - 1*x3^3 - 3*x2 + 5*x2*x3 - 7*x2*x3^2 + 3*x2^2 - 5*x2^2*x3"
        " + 8*x2^3 + 8*x1 - 8*x1*x3 - 1*x1*x3^2 + 5*x1*x2 + 5*x1*x2*x3 - 9*x1*x2^2"
        " + 5*x1^2 + 7*x1^2*x3 + 5*x1^2*x2 - 2*x1^3",
        "4 + 2*x3 - 8*x3^2 - 2*x2 + 4*x2*x3 - 3*x2^2 - 7*x1 + 3*x1*x3 + 3*x1*x2 + 1*x1^2",
    ], 34, 17),
    "seed45_system2": (X4, [
        "7 - 9*x4 + 3*x4^2 + 1*x3 + 2*x3*x4 + 2*x3^2 + 8*x2 - 8*x2*x4 + 5*x2*x3"
        " + 5*x2^2 + 2*x1 - 4*x1*x4 + 5*x1*x3 + 8*x1*x2 - 9*x1^2",
        "-9 + 5*x4 + 3*x4^2 + 8*x3 + 6*x3*x4 + 3*x3^2 - 2*x2 + 9*x2*x4 + 2*x2*x3"
        " + 5*x2^2 - 6*x1 - 2*x1*x4 + 5*x1*x3 + 1*x1*x2 - 9*x1^2",
        "-5 + 6*x4 + 1*x4^2 - 7*x3 + 7*x3*x4 - 8*x3^2 - 8*x2 + 6*x2*x4 + 9*x2*x3"
        " - 8*x2^2 + 6*x1 + 7*x1*x4 - 7*x1*x3 + 4*x1*x2 + 5*x1^2",
        "-2 + 3*x4 + 3*x4^2 - 2*x3 - 8*x3*x4 + 5*x3^2 + 5*x2 - 5*x2*x4 - 8*x2*x3"
        " - 4*x2^2 - 1*x1 - 7*x1*x4 + 9*x1*x3 - 8*x1*x2 + 1*x1^2",
    ], 45, 16),
    "seed102_system8": (X4, [
        "5 + 4*x4 + 4*x4^2 - 2*x3 + 7*x3*x4 - 6*x3^2 + 9*x2 - 3*x2*x4 + 2*x2*x3"
        " - 6*x2^2 - 4*x1 - 9*x1*x4 - 1*x1*x3 + 9*x1*x2 + 9*x1^2",
        "4 + 4*x4 + 9*x4^2 - 3*x3 + 6*x3*x4 - 7*x3^2 - 1*x2 + 5*x2*x4 - 8*x2*x3"
        " + 4*x2^2 - 1*x1 - 9*x1*x4 + 8*x1*x3 + 6*x1*x2 + 5*x1^2",
        "1 - 8*x4 - 5*x4^2 + 2*x3 + 1*x3*x4 - 5*x3^2 + 5*x2 - 6*x2*x4 + 2*x2*x3"
        " + 9*x2^2 + 5*x1 - 8*x1*x4 - 3*x1*x3 - 2*x1*x2 - 6*x1^2",
        "2 + 7*x4 - 7*x4^2 - 6*x3 - 2*x3*x4 - 6*x3^2 - 5*x2 + 7*x2*x4 + 9*x2*x3"
        " + 9*x2^2 - 3*x1 - 3*x1*x4 + 3*x1*x3 - 9*x1*x2 - 2*x1^2",
    ], 102, 16),
}

JUMP = pytest.mark.xfail(strict=True, reason="a tracking jump: two paths end on one "
                                             "root and one root is missed (ROADMAP item 2a)")


@pytest.mark.parametrize("leading, nvars, count", [
    ([(2, 0), (0, 3)], 2, 6),
    ([(2, 0), (1, 1), (0, 2)], 2, 3),
    ([(1, 0), (1, 1)], 2, None),  # y is free: a line of roots
    ([(0, 0)], 2, 0),  # the unit ideal: no roots
])
def test_the_count_is_the_staircase_below_the_leading_monomials(leading, nvars, count):
    assert standard_monomial_count(leading, nvars) == count


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_the_count_agrees_with_sympy(name):
    variables, equations, _, count = SYSTEMS[name]
    assert _count(variables, equations) == _sympy_count(variables, equations) == count


@pytest.mark.parametrize("name", [
    "cubic", "fractional", "quintic", "seed34_system1",
    pytest.param("seed45_system2", marks=JUMP), pytest.param("seed102_system8", marks=JUMP)])
def test_the_solve_finds_as_many_distinct_nonsingular_roots_as_the_count(name):
    """seed34_system1 has 18 paths and 17 roots: its 18th path goes to
    infinity (it ends step_underflow, a label ROADMAP item 2 corrects)."""
    variables, equations, seed, count = SYSTEMS[name]
    system = PolySystem([MultiPoly(len(variables), RationalPoly.parse(text, variables).terms)
                         for text in equations])
    roots = []
    for result in solve_total_degree(system, seed=seed):
        if result.status != "converged":
            continue
        x = result.endpoint
        s = np.linalg.svd(system.jacobian(x), compute_uv=False)
        if s[-1] > 1e-8 * s[0] and all(
                np.linalg.norm(x - y) > 1e-6 * (1.0 + np.linalg.norm(x)) for y in roots):
            roots.append(x)
    assert len(roots) == count
