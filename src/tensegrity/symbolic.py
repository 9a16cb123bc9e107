"""Exact polynomial computation over the rationals.

The sparse polynomial core, shared with the complex polynomials of
`continuation`; multivariate polynomials with exact coefficients (an int
when integral, a Fraction otherwise), lex/degrevlex monomial orders,
multivariate division, Buchberger's algorithm with the coprime
criterion, all r x r minors of a polynomial matrix, and
ideal-containment checking by normal forms.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import repeat
from operator import and_, mul, rshift

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


class _Packing:
    """Heap keys of a monomial order on n variables: one Python int each.

    Each exponent gets a field of `width` bits, B = 2**width, whose top bit
    is a guard.  The key of the exponent vector e is its dot product with
    `weights`, so it is linear in e: the key of a product of monomials is
    the sum of their keys.  The larger monomial has the smaller key:

    - degrevlex: -deg(e)*B**n + e_n*B**(n-1) + ... + e_1, which sorts like
      the tuple (-deg, e_n, ..., e_1): graded, ties broken by the smallest
      power of the last variable;
    - lex: -(e_1*B**(n-1) + ... + e_n), which sorts like (-e_1, ..., -e_n).

    A key keeps its order, and `exponents` inverts it, while every exponent
    is below B.  `packed(k)` (k for degrevlex, -k for lex) holds e in its
    low n fields, so with every exponent below the guard the monomial a
    divides b iff `(packed(b) - packed(a)) & guard == 0`: the lowest field
    where b's exponent is the smaller one borrows, which sets its guard bit.
    """

    __slots__ = ("width", "weights", "shifts", "mask", "guard", "flip")

    def __init__(self, order: str, n: int, width: int):
        top = n * width
        if order == "degrevlex":
            self.shifts = tuple(range(0, top, width))
            self.weights = tuple((1 << s) - (1 << top) for s in self.shifts)
        else:
            self.shifts = tuple(range(top - width, -1, -width))
            self.weights = tuple(-(1 << s) for s in self.shifts)
        self.flip = order == "lex"
        self.width = width
        self.mask = (1 << width) - 1
        self.guard = sum(1 << (s + width - 1) for s in self.shifts)

    def key(self, exps) -> int:
        return sum(map(mul, exps, self.weights))

    def exponents(self, key: int) -> tuple:
        packed = -key if self.flip else key
        return tuple(map(and_, map(rshift, repeat(packed), self.shifts),
                         repeat(self.mask)))


@functools.lru_cache(maxsize=128)
def _packing(order: str, n: int, width: int) -> _Packing:
    return _Packing(order, n, width)


def _order_key(order: str, n: int, bound: int = 0) -> _Packing:
    """The heap keys of a monomial order on n variables whose fields hold
    every exponent up to `bound` below their guard bits."""
    if order not in ("degrevlex", "lex"):
        raise SymbolicError(
            f"unknown monomial order {order!r}: order must be 'degrevlex' or 'lex'")
    return _packing(order, n, bound.bit_length() + 1)


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
            coeff = self._checked(coeff, exps)
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

    @classmethod
    def _checked(cls, value, exps=None):
        """value as a coefficient (of the term exps) or a scalar operand (exps
        None); a "x", a NaN, an inf or an int too large for a float type is
        the ring's error naming it."""
        try:
            return cls.coefficient(value)
        except (TypeError, ValueError, OverflowError) as exc:
            what = f"scalar {value!r}" if exps is None else f"coefficient of {exps!r}"
            raise cls.error(f"bad {what}: {exc}") from None

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
        return max(map(sum, self.terms), default=0)

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
            scalar = self._checked(other)
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

    __slots__ = ("_hash",)
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
        key = _order_key(order, len(self.variables), self.total_degree()).key
        exps = min(self.terms, key=key)
        return exps, self.terms[exps]

    def monic(self, order: str = "degrevlex") -> "RationalPoly":
        _, lc = self.leading(order)
        return self if lc == 1 else self / lc

    # -- arithmetic ---------------------------------------------------

    def __truediv__(self, scalar):
        scalar = self._checked(scalar)
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
        # computed once: a polynomial never changes
        try:
            return self._hash
        except AttributeError:
            pass
        terms = self.terms
        if not terms:
            value = hash(0)
        elif len(terms) == 1 and not any(exps := next(iter(terms))):
            value = hash(terms[exps])  # a constant equals its coefficient
        else:
            value = hash((self.variables, frozenset(terms.items())))
        object.__setattr__(self, "_hash", value)
        return value

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
        key = _order_key("degrevlex", len(self.variables), self.total_degree()).key
        for exps in sorted(self.terms, key=key):
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


_TOKEN = re.compile(r"\s*(?:(?P<ratio>\d+\s*/\s*\d+)"
                    r"|(?P<num>\d+)"
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
        kind = m.lastgroup
        if kind == "num":
            out.append((kind, int(m.group(kind))))
        elif kind == "ratio":
            out.append((kind, _exact("".join(m.group(kind).split()))))
        else:
            out.append((kind, m.group(kind)))
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
            if kind in ("num", "ratio"):
                coeff *= value
                i += 1
            elif kind == "name":
                if value not in index:
                    raise SymbolicError(f"unknown variable {value!r}")
                power = 1
                i += 1
                if i + 1 < len(tokens) and tokens[i] == ("op", "^"):
                    nkind, power = tokens[i + 1]
                    if nkind == "ratio":
                        # x^4/2 would read as x^2
                        raise SymbolicError(
                            "exponent must be a nonnegative integer; a "
                            "fraction goes in front, as in 1/2*x^4")
                    if nkind != "num":
                        raise SymbolicError(
                            "exponent must be a nonnegative integer")
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


class _Divisor:
    """A nonzero g prepared for `_divide`: its leading exponents, the
    variables they hold as bits of `support`, its total degree, and its tail
    divided by the leading coefficient and negated (through Fraction, so
    that an int lead never gives a float).
    """

    __slots__ = ("lead", "support", "degree", "tail", "_packed")

    def __init__(self, g: RationalPoly, order: str):
        self.degree = g.total_degree()
        self.lead, lc = g.leading(order)
        scale = _exact(Fraction(-1, lc))
        self.support = sum(1 << i for i, a in enumerate(self.lead) if a)
        self.tail = [(e, _exact(c * scale)) for e, c in g.terms.items() if e != self.lead]
        self._packed = {}

    def packed(self, packing: _Packing):
        """(leading key, packed leading key, tail as (key, coefficient)
        pairs), computed once per field width."""
        got = self._packed.get(packing.width)
        if got is None:
            key = packing.key
            klead = key(self.lead)
            got = self._packed[packing.width] = (
                klead, -klead if packing.flip else klead,
                [(key(e), c) for e, c in self.tail])
        return got


class _Divisors:
    """Divisors in the order they are tried, with their ring (None if there
    are none), the monomial order they are prepared for and their largest
    degree.  Their keys are packed once for each field width asked for.
    """

    __slots__ = ("order", "ring", "members", "degree", "_packed")

    def __init__(self, order: str, ring, members):
        self.order, self.ring, self.members = order, ring, list(members)
        self.degree = max((d.degree for d in self.members), default=0)
        self._packed = {}

    def append(self, divisor: _Divisor):
        self.members.append(divisor)
        self.degree = max(self.degree, divisor.degree)
        self._packed.clear()

    def at(self, packing: _Packing) -> list:
        got = self._packed.get(packing.width)
        if got is None:
            got = self._packed[packing.width] = [d.packed(packing) for d in self.members]
        return got

    def reduce(self, dividend, bound: int, n: int):
        """(packing, `_remainder`) of the dividend that `dividend(packing)`
        builds on n variables, at the narrowest packing whose fields hold
        `bound` and every divisor's degree below their guard bits.  A guard
        bit reached (an exponent that grew, as lex division can) widens the
        fields and divides again, so exponents stay unbounded; a graded
        order never grows an exponent past the dividend's degree.
        """
        bound = max(bound, self.degree)
        while True:
            packing = _order_key(self.order, n, bound)
            remainder = _remainder(dividend(packing), packing, self.at(packing))
            if remainder is not None:
                return packing, remainder
            bound = 1 << 2 * packing.width


def _prepare(G, order: str) -> _Divisors:
    """The nonzero members of G as divisors."""
    nonzero = [g for g in G if not g.is_zero()]
    ring = nonzero[0].variables if nonzero else None
    if any(g.variables != ring for g in nonzero):
        raise SymbolicError("polynomials live in different rings")
    return _Divisors(order, ring, [_Divisor(g, order) for g in nonzero])


def _remainder(p: dict, packing: _Packing, divisors: list) -> dict | None:
    """Remainder of the dividend p (key -> coefficient, changed in place)
    under the divisors packed by `packing`, keyed by it in decreasing
    monomial order; None if an exponent reaches its guard bit.

    Every key built here has its fields below 2**width: a popped exponent
    is below the guard, and so is every exponent of a divisor.
    """
    guard, flip = packing.guard, packing.flip
    heap = list(p)
    heapify(heap)
    remainder = {}
    while heap:
        kp = heappop(heap)
        cp = p.pop(kp, None)
        if cp is None:
            continue  # cancelled after its key was pushed
        pp = -kp if flip else kp
        if pp & guard:
            return None
        for klead, plead, tail in divisors:
            if not (pp - plead) & guard:
                shift = kp - klead
                for kt, ct in tail:
                    k = shift + kt
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
            remainder[kp] = cp
    return remainder


def _divide(f: RationalPoly, divisors: _Divisors, coefficient=Fraction) -> RationalPoly:
    """Remainder of f under division by the divisors, each coefficient
    converted by `coefficient`."""
    if divisors.members and f.variables != divisors.ring:
        raise SymbolicError("polynomials live in different rings")
    terms = f.terms
    packing, remainder = divisors.reduce(
        lambda packing: dict(zip(map(packing.key, terms), map(_exact, terms.values()))),
        f.total_degree(), len(f.variables))
    exponents = packing.exponents
    return RationalPoly._make(
        f.variables, {exponents(k): coefficient(c) for k, c in remainder.items()})


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
    return _divide(f, _prepare(G, order))


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

    @functools.cached_property
    def _divisors(self):
        return _prepare(self.generators, self.order)

    def reduce(self, f: RationalPoly) -> RationalPoly:
        return _divide(f, self._divisors)

    def contains(self, f: RationalPoly) -> bool:
        return self.reduce(f).is_zero()


def buchberger(gens, order: str = "degrevlex",
               pair_budget: int = PAIR_BUDGET) -> GroebnerBasis:
    """Reduced Groebner basis by Buchberger's algorithm.

    S-pairs with coprime leading monomials are skipped; processing more
    than `pair_budget` pairs aborts with PairBudgetError.  An unknown
    `order`, or a `pair_budget` that is not a nonnegative integer, raises
    SymbolicError.  Each generator is prepared for division once, when it
    joins the basis, and each S-polynomial is built from the two prepared
    divisors, in packed keys.
    """
    _order_key(order, 0)  # rejects an unknown order
    _natural(pair_budget, SymbolicError, "pair_budget")
    basis = [g.monic(order) for g in gens if not g.is_zero()]
    if not basis:
        return GroebnerBasis((), order)
    variables = basis[0].variables
    if any(g.variables != variables for g in basis):
        raise SymbolicError("generators live in different rings")
    divisors = _Divisors(order, variables, [_Divisor(g, order) for g in basis])

    pairs = deque(itertools.combinations(range(len(basis)), 2))
    processed = skipped = 0
    while pairs:
        i, j = pairs.popleft()
        processed += 1
        if processed > pair_budget:
            raise PairBudgetError(
                f"Buchberger exceeded the budget of {pair_budget} S-pairs")
        di, dj = divisors.members[i], divisors.members[j]
        if not di.support & dj.support:
            skipped += 1
            continue  # coprime leading monomials reduce to zero
        lcm = tuple(map(max, di.lead, dj.lead))
        packing, rem = divisors.reduce(
            functools.partial(_s_polynomial, divisors, i, j, lcm),
            sum(lcm), len(variables))
        if rem:
            exponents = packing.exponents
            lc = Fraction(next(iter(rem.values())))  # of the leading term
            g = RationalPoly._make(
                variables, {exponents(k): c / lc for k, c in rem.items()})
            basis.append(g)
            divisors.append(_Divisor(g, order))
            new = len(basis) - 1
            pairs.extend((k, new) for k in range(new))

    return GroebnerBasis(_reduce_basis(basis, divisors, order), order,
                         pairs_processed=processed, pairs_skipped=skipped,
                         peak_basis_size=len(basis))


def _s_polynomial(divisors: _Divisors, i: int, j: int, lcm, packing: _Packing) -> dict:
    """S-polynomial of divisors i and j, keyed by packing: the leading terms
    cancel, so with m = lcm / lead and the tails negated as prepared it is
    m_j * tail_j - m_i * tail_i."""
    packed = divisors.at(packing)
    ki, _, ti = packed[i]
    kj, _, tj = packed[j]
    kl = packing.key(lcm)
    shift = kl - kj
    s = {shift + kt: ct for kt, ct in tj}
    shift = kl - ki
    for kt, ct in ti:
        k = shift + kt
        c = s.get(k, 0) - ct
        if c:
            s[k] = c
        else:
            del s[k]
    return s


def _reduce_basis(basis, divisors, order) -> tuple:
    """Canonical reduced form: minimal leading monomials, tails reduced.

    `divisors` are the members of `basis`, all monic, prepared for
    division.  A member goes when another one's leading monomial divides
    its own (of equal ones, the first stays).  Each kept member keeps its
    leading term, which no other kept one divides, so it stays monic; the
    kept ones are sorted by it, smallest first, and each coefficient goes
    through `_exact`: an int when integral.
    """
    variables = basis[0].variables
    packing = _order_key(order, len(variables), divisors.degree)
    guard = packing.guard
    leads = [d.packed(packing)[:2] for d in divisors.members]  # (key, packed)
    keep = [i for i, (_, a) in enumerate(leads)
            if not any(j != i and not (a - b) & guard and (b != a or j < i)
                       for j, (_, b) in enumerate(leads))]
    reduced = {i: _divide(basis[i], _Divisors(
        order, variables, [divisors.members[j] for j in keep if j != i]), _exact)
        for i in keep}
    return tuple(reduced[i] for i in sorted(keep, key=lambda i: leads[i][0],
                                              reverse=True))


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

    # no exponent of a minor exceeds the sum of its rows' degrees
    packing = _order_key("lex", len(variables),
                         sum(max(entry.total_degree() for entry in row) for row in matrix))
    # the minors share most of their monomials: decode each key once
    key, exponents = packing.key, functools.cache(packing.exponents)
    terms = [[dict(zip(map(key, entry.terms), entry.terms.values())) for entry in row]
             for row in matrix]
    out = []
    for rows in itertools.combinations(range(nrows), r):
        memo = {}
        for cols in itertools.combinations(range(ncols), r):
            det = _expand(terms, rows, cols, memo)
            out.append(RationalPoly._make(
                variables, dict(zip(map(exponents, det), det.values()))))
    return out


def _expand(terms, rows, cols, memo) -> dict:
    """Term map of the minor on rows x cols, by cofactor expansion along
    its first row; every cofactor product is summed into one dict.  The
    keys are packed: a product of monomials is the sum of their keys."""
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
                e = e1 + e2
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
