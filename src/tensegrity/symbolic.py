"""Exact polynomial computation over the rationals.

The sparse polynomial core, shared with the complex polynomials of
`continuation`; multivariate polynomials with exact coefficients (an int
when integral, a Fraction otherwise), lex/degrevlex monomial orders,
multivariate division, Buchberger's algorithm with the coprime
criterion, all r x r minors of a polynomial matrix, and
ideal-containment checking by normal forms.
"""

from __future__ import annotations

import itertools
import operator
import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg, sub

#: Buchberger aborts after processing this many S-pairs
PAIR_BUDGET = 10_000


class SymbolicError(ValueError):
    """Raised for malformed polynomials, rings, or matrices."""


class PairBudgetError(SymbolicError):
    """Raised when Buchberger exceeds its S-pair budget."""


def _natural(value, error, what: str, stop=None, start=0) -> int:
    """The package's one integer check: value as an int in [start, stop), a
    None bound being none, if it is an integer (numpy ones too) and not a
    bool; a 1.7, "2", True or out-of-range value is an `error`."""
    try:
        k = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        k = None
    if k is not None and (start is None or k >= start) and (stop is None or k < stop):
        return k
    bound = ("an integer" if k is None else f"an integer >= {start}" if stop is None
             else f"an integer in [{start}, {stop})")
    raise error(f"{what} must be {bound}, got {value!r}")


def _order_key(order: str):
    """Heap key of a monomial order: the larger monomial has the smaller key.

    Both keys are linear in the exponent vector, so the key of a product of
    monomials is the sum of their keys, and each key determines its
    exponent vector (see `_key_exponents`).
    """
    if order == "degrevlex":
        # graded, ties broken by *smallest* power of the *last* variable
        return lambda e: (-sum(e),) + e[::-1]
    if order == "lex":
        return lambda e: tuple(map(neg, e))
    raise SymbolicError(
        f"unknown monomial order {order!r}: order must be 'degrevlex' or 'lex'")


def _key_exponents(order: str):
    """Inverse of `_order_key(order)`: heap key -> exponent vector."""
    if order == "degrevlex":
        return lambda k: k[:0:-1]
    return lambda k: tuple(map(neg, k))


class SparsePoly:
    """Sparse multivariate polynomial: exponent tuple -> coefficient.

    Zero coefficients are never stored, so the zero polynomial has an empty
    term map.  Subclasses set the coefficient type (`coefficient`), the
    error class (`error`) and the number of variables of a ring (`_width`).
    The constructor validates input from outside the program; results of
    arithmetic go through `_make`, which trusts its arguments.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        width = self._width(ring)
        clean = {}
        for exps, coeff in (terms or {}).items():
            try:  # a "x", a NaN, or an int too large for a float
                coeff = self.coefficient(coeff)
            except (TypeError, ValueError, OverflowError) as exc:
                raise self.error(f"bad coefficient of {exps!r}: {exc}") from None
            if coeff == 0:
                continue
            if not (isinstance(exps, tuple) and len(exps) == width):
                raise self.error(f"bad exponent vector {exps!r}")
            clean[tuple(_natural(e, self.error, "an exponent") for e in exps)] = coeff
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _make(cls, ring, terms):
        """Wrap a term map without checks: the ring must already be valid,
        every exponent tuple must fit it, and no coefficient may be zero."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "ring", ring)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return type(self), (self.ring, self.terms)

    @classmethod
    def constant(cls, ring, value):
        return cls(ring, {(0,) * cls._width(ring): value})

    @classmethod
    def variable(cls, ring, index: int):
        exps = [0] * cls._width(ring)
        exps[_natural(index, cls.error, "a variable index", len(exps))] = 1
        return cls(ring, {tuple(exps): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.ring != self.ring:
                raise self.error("polynomials live in different rings")
            return other
        return self.constant(self.ring, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            merged = terms.get(exps, 0) + coeff
            if merged == 0:
                terms.pop(exps, None)
            else:
                terms[exps] = merged
        return self._make(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            scalar = self.coefficient(other)
            # a product of nonzero floats can still underflow to zero
            return self._make(self.ring, {e: v for e, c in self.terms.items()
                                          if (v := c * scalar) != 0})
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                merged = terms.get(exps, 0) + c1 * c2
                if merged == 0:
                    terms.pop(exps, None)
                else:
                    terms[exps] = merged
        return self._make(self.ring, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _natural(n, self.error, "a power")
        out = self.constant(self.ring, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def diff(self, index: int):
        """Partial derivative with respect to the variable at `index`."""
        index = _natural(index, self.error, "a variable index", self._width(self.ring))
        terms = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            lowered = list(exps)
            lowered[index] = e - 1
            terms[tuple(lowered)] = coeff * e
        return self._make(self.ring, terms)


def _exact(value):
    """An exact coefficient: an int when `value` is integral, else a Fraction.

    Ints add and multiply several times faster than Fractions, and an
    integral Fraction compares, hashes and prints like its int.
    """
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        try:
            value = Fraction(value)
        except ZeroDivisionError:
            raise SymbolicError(f"zero denominator in {value!r}") from None
    return value.numerator if value.denominator == 1 else value


class RationalPoly(SparsePoly):
    """Polynomial in Q[variables] stored as exponent-tuple -> coefficient.

    A coefficient is an int when it is integral and a Fraction otherwise:
    the constructor, `parse` and scalar operands go through `_exact`, so
    integral input stays on ints through +, -, *, `diff`, `project` and
    `symbolic_minors`.  Arithmetic on Fractions may leave an integral
    Fraction, which compares, hashes and prints like its int.
    """

    __slots__ = ()
    coefficient = staticmethod(_exact)
    error = SymbolicError
    _width = staticmethod(len)

    def __init__(self, variables, terms=None):
        variables = tuple(str(v) for v in variables)
        if len(set(variables)) != len(variables):
            raise SymbolicError("duplicate variable names")
        super().__init__(variables, terms)

    @property
    def variables(self) -> tuple:
        return self.ring

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "RationalPoly":
        return cls(variables, {})

    @classmethod
    def parse(cls, text: str, variables) -> "RationalPoly":
        return _parse(text, tuple(str(v) for v in variables))

    # -- structure ----------------------------------------------------

    def leading(self, order: str = "degrevlex"):
        """(exponent tuple, coefficient) of the leading term."""
        if not self.terms:
            raise SymbolicError("zero polynomial has no leading term")
        exps = min(self.terms, key=_order_key(order))
        return exps, self.terms[exps]

    def monic(self, order: str = "degrevlex") -> "RationalPoly":
        _, lc = self.leading(order)
        return self if lc == 1 else self / lc

    # -- arithmetic ---------------------------------------------------

    def __truediv__(self, scalar):
        scalar = _exact(scalar)
        if scalar == 0:
            raise SymbolicError("division of a polynomial by zero")
        return self * Fraction(1, scalar)

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly.constant(self.variables, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def diff(self, variable) -> "RationalPoly":
        """Partial derivative with respect to a variable (name or index)."""
        if isinstance(variable, str):
            if variable not in self.variables:
                raise SymbolicError(f"unknown variable {variable!r}")
            variable = self.variables.index(variable)
        return super().diff(variable)

    def project(self, variables) -> "RationalPoly":
        """Rewrite in a subring; fails if an eliminated variable survives."""
        variables = tuple(str(v) for v in variables)
        where = {i: variables.index(name)
                 for i, name in enumerate(self.variables) if name in variables}
        terms = {}
        for exps, coeff in self.terms.items():
            shrunk = [0] * len(variables)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if i not in where:
                    raise SymbolicError(
                        f"variable {self.variables[i]!r} survives the projection")
                shrunk[where[i]] = e
            terms[tuple(shrunk)] = coeff
        return RationalPoly(variables, terms)

    def evaluate(self, point):
        """Exact evaluation at a sequence of Fractions (or ints)."""
        point = [Fraction(v) for v in point]
        if len(point) != len(self.variables):
            raise SymbolicError("point has wrong length")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            val = coeff
            for base, e in zip(point, exps):
                if e:
                    val *= base ** e
            total += val
        return total

    # -- printing -----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps in sorted(self.terms, key=_order_key("degrevlex")):
            coeff = self.terms[exps]
            mono = "*".join(
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(self.variables, exps) if e > 0)
            if not mono:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"RationalPoly({str(self)!r})"


def ring_variables(names) -> tuple:
    """Generator polynomials x_i for the ring Q[names]."""
    names = tuple(str(n) for n in names)
    return tuple(RationalPoly.variable(names, i) for i in range(len(names)))


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:\s*/\s*\d+)?)"
                    r"|(?P<name>[A-Za-z_]\w*)"
                    r"|(?P<op>[\^*+\-]))")


def _tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise SymbolicError(f"cannot parse {text[pos:]!r}")
            break
        pos = m.end()
        if m.lastgroup == "num":
            out.append(("num", _exact(m.group("num").replace(" ", ""))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def _parse(text: str, variables) -> RationalPoly:
    """Sums of products: coefficients, names, ^ powers, * products."""
    index = {name: i for i, name in enumerate(variables)}
    tokens = _tokenize(text)
    if not tokens:
        raise SymbolicError("empty polynomial text")
    terms = {}
    i = 0
    while i < len(tokens):
        sign = 1
        while i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        coeff = sign
        exps = [0] * len(variables)
        expect_factor = True
        while i < len(tokens):
            kind, value = tokens[i]
            if kind == "op" and value in "+-":
                break
            if kind == "op" and value == "*":
                if expect_factor:
                    # skipping it would read x**2 as 2*x
                    raise SymbolicError(
                        "'*' does not follow a factor; powers are written "
                        "'^', as in x^2, not '**'")
                i += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise SymbolicError(f"missing operator before {value!r}")
            if kind == "num":
                coeff *= value
                i += 1
            elif kind == "name":
                if value not in index:
                    raise SymbolicError(f"unknown variable {value!r}")
                power = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
                    nkind, nvalue = tokens[i + 1]
                    if nkind != "num" or nvalue.denominator != 1:
                        raise SymbolicError(
                            "exponent must be a nonnegative integer")
                    power = int(nvalue)
                    i += 2
                exps[index[value]] += power
            else:
                raise SymbolicError(f"unexpected {value!r}")
            expect_factor = False
        if expect_factor:
            raise SymbolicError("dangling operator")
        exps = tuple(exps)
        terms[exps] = terms.get(exps, 0) + coeff
    return RationalPoly(variables, terms)


# ---------------------------------------------------------------------------
# division and Groebner bases


def _divides(ea, eb) -> bool:
    return all(a <= b for a, b in zip(ea, eb))


def _divisor(g: RationalPoly, key):
    """A nonzero g prepared for `_divide`: its leading key, the support of
    its leading monomial, and its tail divided by the leading coefficient
    and negated (through Fraction, so that an int lead never gives a float).
    """
    elead = min(g.terms, key=key)
    scale = _exact(Fraction(-1, g.terms[elead]))
    support = tuple((i, a) for i, a in enumerate(elead) if a)
    tail = [(key(e), _exact(c * scale))
            for e, c in g.terms.items() if e != elead]
    return key(elead), support, tail


def _prepare(G, order: str):
    """The ring of the nonzero members of G, and each of them as a divisor."""
    key = _order_key(order)
    ring, divisors = None, []
    for g in G:
        if g.is_zero():
            continue
        if ring is None:
            ring = g.variables
        elif g.variables != ring:
            raise SymbolicError("polynomials live in different rings")
        divisors.append(_divisor(g, key))
    return ring, divisors


def _divide(f: RationalPoly, ring, divisors, order: str) -> RationalPoly:
    """Remainder of f under division by divisors prepared by `_prepare`."""
    if divisors and f.variables != ring:
        raise SymbolicError("polynomials live in different rings")
    key = _order_key(order)
    exponents = _key_exponents(order)
    p = {key(e): _exact(c) for e, c in f.terms.items()}
    heap = list(p)
    heapify(heap)
    remainder = {}
    while heap:
        kp = heappop(heap)
        cp = p.pop(kp, None)
        if cp is None:
            continue  # cancelled after its key was pushed
        ep = exponents(kp)
        for klead, support, tail in divisors:
            for i, a in support:
                if ep[i] < a:
                    break
            else:
                shift = tuple(map(sub, kp, klead))
                for kt, ct in tail:
                    k = tuple(map(add, shift, kt))
                    c = p.get(k)
                    if c is None:
                        p[k] = cp * ct
                        heappush(heap, k)
                    else:
                        c += cp * ct
                        if c:
                            p[k] = c
                        else:
                            del p[k]
                break
        else:
            remainder[ep] = Fraction(cp)
    return RationalPoly._make(f.variables, remainder)


def normal_form_reduce(f: RationalPoly, G, order: str = "degrevlex") -> RationalPoly:
    """Remainder of f under multivariate division by the list G.

    Each step takes the leading term of the dividend and cancels it with the
    first member of G whose leading monomial divides it, or moves it to the
    remainder (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms,
    section 2.3).  The dividend is a dict keyed by `_order_key`, changed in
    place, with a heap of its keys for the leading term (Monagan & Pearce,
    CASC 2007).  A key whose term has cancelled stays in the heap and is
    skipped when popped; every term added is below the current leading one,
    so a popped key never returns.  Integral coefficients are held as ints
    inside the loop and the remainder gets Fractions.

    G is prepared for division on every call; `GroebnerBasis.reduce`
    prepares its generators once.
    """
    return _divide(f, *_prepare(G, order), order)


def s_polynomial(f: RationalPoly, g: RationalPoly, order: str = "degrevlex"):
    ef, cf = f.leading(order)
    eg, cg = g.leading(order)
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = RationalPoly._make(f.variables, {
        tuple(l - a for l, a in zip(lcm, ef)): _exact(Fraction(1, cf))})
    mg = RationalPoly._make(g.variables, {
        tuple(l - a for l, a in zip(lcm, eg)): _exact(Fraction(1, cg))})
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis and the work `buchberger` spent on it.

    The counters take no part in equality or hashing: `pairs_processed` is
    every S-pair taken from the queue (what `pair_budget` limits),
    `pairs_skipped` those of them skipped by the coprime criterion, and
    `peak_basis_size` the most generators held before the final reduction.
    The generators are prepared for division on the first `reduce`, and
    every later one reuses them.
    """
    generators: tuple
    order: str
    pairs_processed: int = field(default=0, compare=False)
    pairs_skipped: int = field(default=0, compare=False)
    peak_basis_size: int = field(default=0, compare=False)

    @cached_property
    def _divisors(self):
        return _prepare(self.generators, self.order)

    def reduce(self, f: RationalPoly) -> RationalPoly:
        return _divide(f, *self._divisors, self.order)

    def contains(self, f: RationalPoly) -> bool:
        return self.reduce(f).is_zero()


def buchberger(gens, order: str = "degrevlex",
               pair_budget: int = PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    S-pairs with coprime leading monomials are skipped; processing more
    than `pair_budget` pairs aborts with PairBudgetError.  An unknown
    `order`, or a `pair_budget` that is not a nonnegative integer, raises
    SymbolicError.  Each generator is prepared for division once, when it
    joins the basis.
    """
    key = _order_key(order)  # rejects an unknown order
    _natural(pair_budget, SymbolicError, "pair_budget")
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    if not basis:
        return GroebnerBasis((), order)
    variables = basis[0].variables
    if any(g.variables != variables for g in basis):
        raise SymbolicError("generators live in different rings")
    divisors = [_divisor(g, key) for g in basis]

    pairs = deque(itertools.combinations(range(len(basis)), 2))
    processed = skipped = 0
    while pairs:
        i, j = pairs.popleft()
        processed += 1
        if processed > pair_budget:
            raise PairBudgetError(
                f"Buchberger exceeded the budget of {pair_budget} S-pairs")
        ei, _ = basis[i].leading(order)
        ej, _ = basis[j].leading(order)
        if all(a == 0 or b == 0 for a, b in zip(ei, ej)):
            skipped += 1
            continue  # coprime leading monomials reduce to zero
        rem = _divide(s_polynomial(basis[i], basis[j], order),
                      variables, divisors, order)
        if not rem.is_zero():
            g = rem.monic(order)
            basis.append(g)
            divisors.append(_divisor(g, key))
            new = len(basis) - 1
            pairs.extend((k, new) for k in range(new))

    return GroebnerBasis(_reduce_basis(basis, divisors, order), order,
                         pairs_processed=processed, pairs_skipped=skipped,
                         peak_basis_size=len(basis))


def _reduce_basis(basis, divisors, order) -> tuple:
    """Canonical reduced form: minimal leading monomials, tails reduced.

    `divisors` are the members of `basis` prepared for division.  The
    remainders come back with Fraction coefficients, so each generator's
    coefficients go through `_exact`: an int when integral.
    """
    key = _order_key(order)
    variables = basis[0].variables
    leads = [g.leading(order)[0] for g in basis]
    keep = []
    for i, e in enumerate(leads):
        if any(j != i and _divides(leads[j], e)
               and (leads[j] != e or j < i) for j in range(len(basis))):
            continue
        keep.append(i)
    reduced = []
    for i in keep:
        others = [divisors[j] for j in keep if j != i]
        r = _divide(basis[i], variables, others, order)
        if not r.is_zero():
            r = r.monic(order)
            reduced.append(RationalPoly._make(
                variables, {e: _exact(c) for e, c in r.terms.items()}))
    reduced.sort(key=lambda g: key(g.leading(order)[0]), reverse=True)
    return tuple(reduced)


# ---------------------------------------------------------------------------
# minors


def symbolic_minors(matrix, r: int) -> list:
    """All r x r minors, row and column subsets in ascending index order.

    r is an integer in [1, min(rows, cols)], not a bool.  Zero minors are
    included (callers can flag them with is_zero).  The expansion is
    memoized across column subsets, which share most of their
    subdeterminants; each row subset is independent work.
    """
    nrows = len(matrix)
    if nrows == 0 or any(len(row) != len(matrix[0]) for row in matrix):
        raise SymbolicError("matrix must be rectangular and nonempty")
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if not isinstance(entry, RationalPoly):
                raise SymbolicError(
                    f"matrix entry ({i}, {j}) is not a RationalPoly: {entry!r}")
    ncols = len(matrix[0])
    r = _natural(r, SymbolicError, "minor size", min(nrows, ncols) + 1, start=1)
    variables = matrix[0][0].variables
    if any(entry.variables != variables for row in matrix for entry in row):
        raise SymbolicError("matrix entries live in different rings")

    terms = [[entry.terms for entry in row] for row in matrix]
    out = []
    for rows in itertools.combinations(range(nrows), r):
        memo = {}
        for cols in itertools.combinations(range(ncols), r):
            out.append(RationalPoly._make(
                variables, _expand(terms, rows, cols, memo)))
    return out


def _expand(terms, rows, cols, memo) -> dict:
    """Term map of the minor on rows x cols, by cofactor expansion along
    its first row; every cofactor product is summed into one dict."""
    if len(rows) == 1:
        return terms[rows[0]][cols[0]]
    key = (rows, cols)
    det = memo.get(key)
    if det is not None:
        return det
    det = {}
    top, sub_rows = terms[rows[0]], rows[1:]
    for k, c in enumerate(cols):
        entry = top[c]
        if not entry:
            continue
        minor = _expand(terms, sub_rows, cols[:k] + cols[k + 1:], memo)
        for e1, c1 in entry.items():
            if k % 2:
                c1 = -c1
            for e2, c2 in minor.items():
                e = tuple(map(add, e1, e2))
                v = det.get(e, 0) + c1 * c2
                if v:
                    det[e] = v
                else:
                    del det[e]
    memo[key] = det
    return det


# ---------------------------------------------------------------------------
# containment


@dataclass(frozen=True)
class ContainmentReport:
    contained: bool
    remainders: tuple

    @property
    def worst_remainder(self) -> RationalPoly | None:
        nonzero = [r for r in self.remainders if not r.is_zero()]
        if not nonzero:
            return None
        return max(nonzero, key=lambda r: (len(r.terms), r.total_degree()))


def verify_containment(I_gens, P_gens, order: str = "degrevlex") -> ContainmentReport:
    """Does the ideal generated by I_gens lie inside <P_gens>?

    True iff every generator of I has zero normal form modulo a Groebner
    basis of P; per-generator remainders are kept for diagnosis.  The
    normal form is unique and linear, NF(-f) = -NF(f) exactly, so a
    generator equal to an earlier one or to its negative is not reduced
    again.
    """
    gb = buchberger(list(P_gens), order)
    seen = {}
    remainders = []
    for f in I_gens:
        r = seen.get(f)
        if r is None:
            r = seen.get(-f)
            r = gb.reduce(f) if r is None else -r
            seen[f] = r
        remainders.append(r)
    return ContainmentReport(
        contained=all(r.is_zero() for r in remainders),
        remainders=tuple(remainders),
    )
