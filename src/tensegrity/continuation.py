"""Homotopy continuation over complex polynomial systems.

Complex sparse polynomials on the core shared with `symbolic`, whose
values and Jacobian come from one evaluation of one term set, Davidenko
predictor-corrector tracking of many paths in lockstep, total-degree
solving with the gamma trick, real parameter homotopies that deform pinned
frameworks along hyperplanes, and the critical-point formulation of
epsilon-local rigidity.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from math import prod

import numpy as np

from .framework import (Configuration, FrameworkError, MemberConstraintSystem,
                        member_polynomials)
from .rigidity import (_pinned_coordinates, free_coordinate_mask, numerical_nullspace,
                       pin_moving_frame)
from .symbolic import SparsePoly, _natural

#: endpoints are flagged real when no coordinate has |Im| above this
TAU_IMAG = 1e-6

#: maximum residual of the start point on the start system
TOL_START = 1e-8

#: first, smallest and largest step in t; the step doubles after
#: GROW_AFTER accepted steps in a row and halves on each rejection
DT_INIT = 1e-2
DT_MIN = 1e-12
DT_MAX = 1e-1
GROW_AFTER = 5

#: Newton corrector tolerance (scaled by 1 + |x|^deg); the corrector makes
#: at most MAX_NEWTON + 1 updates (see _newton)
NEWTON_TOL = 1e-10
MAX_NEWTON = 3

#: tracking stops at this t and polishes on the target instead
T_CUTOFF = 1e-4

#: a path whose norm exceeds this is labelled diverged
DIVERGENCE = 1e10

#: step cap per path; the final polish makes at most POLISH_STEPS + 1
#: Newton updates
MAX_STEPS = 5000
POLISH_STEPS = 30

#: an endpoint is converged when its target residual is below this
#: times 1 + |x|^deg
TOL_END_REL = 1e-8

#: the fewest rows of one lockstep batch, and the granularity of the split
#: of a solve over forked processes (see track_paths)
BLOCK_PATHS = 64

#: rows x terms of a PolySystem's product buffer that one lockstep batch
#: may fill: a batch of a homotopy whose stacked system has T terms
#: holds max(BLOCK_PATHS, BATCH_TERMS // T) paths (see _batch_rows)
BATCH_TERMS = 2 ** 16

#: refuse total-degree solves beyond this many paths unless overridden
DEFAULT_PATH_BUDGET = 100_000


class ContinuationError(ValueError):
    """Raised for malformed systems or invalid tracking inputs."""


class PathBudgetError(ContinuationError):
    """Raised when a solve would track more paths than the configured budget."""


def _finite_complex(value) -> complex:
    if math.isfinite((c := complex(value)).real) and math.isfinite(c.imag):
        return c
    raise ValueError(f"{value!r} is not finite")


class MultiPoly(SparsePoly):
    """Sparse multivariate polynomial with finite complex coefficients."""

    __slots__ = ()
    coefficient = staticmethod(_finite_complex)
    error = ContinuationError
    _width = staticmethod(int)

    def __init__(self, nvars: int, terms=None):
        super().__init__(_natural(nvars, ContinuationError, "nvars"), terms)

    @property
    def nvars(self) -> int:
        return self.ring

    @classmethod
    def from_univariate(cls, coeffs) -> "MultiPoly":
        """Dense univariate coefficients, highest degree first (numpy order)."""
        coeffs = list(coeffs)
        deg = len(coeffs) - 1
        return cls(1, {(deg - k,): c for k, c in enumerate(coeffs)})

    def lift(self, nvars: int) -> "MultiPoly":
        """Re-embed into a larger ring, as its leading variables."""
        if self.nvars > nvars:
            raise ContinuationError("lift does not fit")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class PolySystem:
    """A list of MultiPoly over a shared list of at least one variable,
    whose values (rows [0, m)) and Jacobian (rows m + i * n + j) are the
    row sums of one set of terms, each a coefficient times a monomial summed
    into its output row, at one point or at each row of a (P, n) batch of
    points.

    The term set is built on the first evaluation.  Each distinct monomial
    is a column of one (P, W) table, which the terms read.  The first
    (max_exp + 1) * n columns are the powers x_j^k (column k * n + j),
    which are every monomial in at most one variable; the constant 1 is
    x_0^0 in column 0.  A monomial in L >= 2 variables is its prefix, the
    same monomial without its last variable, times that variable's power,
    so it is built with one product; prefixes that no polynomial uses are
    added.  The columns after the powers hold these monomials level by
    level, L = 2, 3, ..., and each level is one two-factor product over
    (prefix, power) column pairs.  The products run left to right over the
    variables, like a product over all of them with the x^0 = 1 factors
    left out.  At finite points those factors are exact, so leaving them out
    can change only the sign of a zero, which the scatter sum drops.  A
    monomial's column depends on its exponents alone, so it has the same
    bits in any table that holds it.

    The terms' products go to a buffer kept on the system that, like the
    terms' output rows, holds one point until a batch comes and then
    max(P, BLOCK_PATHS) points, so a tracker's batch of _batch_rows points
    fills it from its first call: repeated calls allocate neither, and two
    threads may not share it.
    """

    def __init__(self, polys):
        polys = list(polys)
        if not polys:
            raise ContinuationError("empty polynomial system")
        if not all(isinstance(p, MultiPoly) for p in polys):
            raise ContinuationError("every polynomial of a system must be a MultiPoly")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ContinuationError("variable count mismatch in system")
        if not nvars:
            raise ContinuationError("a polynomial system needs at least one variable")
        self.polys = polys
        self.nvars = nvars
        self.coeffs = None  # set, last, by _build

    def __len__(self):
        return len(self.polys)

    @property
    def degrees(self):
        return [p.total_degree() for p in self.polys]

    @property
    def terms(self) -> int:
        """The number of terms of the values and the Jacobian together."""
        if self.coeffs is None:
            self._build()
        return self.coeffs.shape[1]

    def _build(self) -> None:
        """The term set of the polynomials and their partial derivatives."""
        polys, nvars = self.polys, self.nvars
        sizes = [len(p.terms) for p in polys]
        coeffs = np.fromiter(
            itertools.chain.from_iterable(p.terms.values() for p in polys),
            dtype=complex, count=sum(sizes))
        m = len(polys)
        rows = np.repeat(np.arange(m), sizes)
        # polynomials in a system share most monomials, so evaluate each
        # distinct exponent tuple once and scatter
        unique = {}
        monomial = np.array([unique.setdefault(e, len(unique))
                             for p in polys for e in p.terms], dtype=np.int64)
        # a term c x^e gives the terms c e_j x^(e - 1_j), in the order and
        # with the coefficients of MultiPoly.diff (a complex times a small
        # integer rounds once either way), but without building the
        # derivative polynomials; the lowered monomials join the table
        E = np.array(list(unique), dtype=np.int64).reshape(-1, nvars)
        u, j = np.nonzero(E)
        lowered = E[u]
        lowered[np.arange(len(u)), j] -= 1
        index = np.zeros_like(E)
        index[u, j] = [unique.setdefault(e, len(unique))
                       for e in map(tuple, lowered.tolist())]
        exps = E[monomial]
        t, j = np.nonzero(exps)
        # each row's terms keep their order, so its scatter sum keeps its bits
        coeffs = np.concatenate([coeffs, coeffs[t] * exps[t, j]])
        rows = np.concatenate([rows, m + rows[t] * nvars + j])
        monomial = np.concatenate([monomial, index[monomial[t], j]])

        E = np.array(list(unique), dtype=np.int64).reshape(-1, nvars)
        self.nrows = m * (1 + nvars)
        self.max_exp = int(E.max(initial=0))
        power = E * nvars + np.arange(nvars)  # column of x_j^e
        level = np.count_nonzero(E, axis=1)
        count = np.cumsum(E != 0, axis=1)  # nonzero variables up to each j
        # column of each monomial's part in its first k variables, as k grows
        # from 0 (the constant 1)
        column = np.zeros(len(E), dtype=np.int64)
        self.width = (self.max_exp + 1) * nvars
        self.levels = []  # per level: its columns, their prefix and power columns
        for k in range(1, int(level.max(initial=0)) + 1):
            wide = np.flatnonzero(level >= k)
            kth = power[wide, np.argmax(count[wide] == k, axis=1)]
            if k == 1:
                column[wide] = kth
                continue
            # a part in k variables is its prefix times its k-th power, so
            # the pair of columns names it; parts shared by several
            # monomials are built once
            slot = {}
            at = np.array([slot.setdefault(pair, len(slot)) for pair in
                           zip(column[wide].tolist(), kth.tolist())], dtype=np.int64)
            self.levels.append((slice(self.width, self.width + len(slot)),
                                *np.array(list(zip(*slot)), dtype=np.int64)))
            column[wide] = self.width + at
            self.width += len(slot)
        self.column = column[monomial]
        # the terms' output rows at one point and, once a batch comes, at
        # each point of the product buffer
        self.rows = self.wide_rows = rows
        self.products = np.empty((1, len(coeffs)), dtype=complex)
        # 2-D, so that it multiplies a (P, T) batch as a 1-D T at one point
        self.coeffs = coeffs[None]

    def evaluate(self, x) -> np.ndarray:
        """Values at a point (m,), or at each row of a (P, n) batch (P, m)."""
        return self.evaluate_and_jacobian(x)[0]

    def jacobian(self, x) -> np.ndarray:
        """Jacobian at a point (m, n), or at each row of a batch (P, m, n)."""
        return self.evaluate_and_jacobian(x)[1]

    def evaluate_and_jacobian(self, x) -> tuple:
        """evaluate(x) and jacobian(x) from one evaluation's sums, both
        C-contiguous: at a batch of several points, copies of its columns."""
        sums = self._sums(x)
        m = len(self.polys)
        return (np.ascontiguousarray(sums[..., :m]),
                np.ascontiguousarray(sums[..., m:]).reshape(sums.shape[:-1] + (m, self.nvars)))

    def _sums(self, x) -> np.ndarray:
        """The row sums at a point (nrows,) or a batch (P, nrows), in a new array."""
        x = np.asarray(x, dtype=complex)
        if x.shape[-1:] != (self.nvars,):
            raise ContinuationError(
                f"a point needs {self.nvars} coordinates, got an array of shape {x.shape}")
        terms = self.terms
        X = x.reshape(-1, self.nvars)
        P = len(X)
        if len(self.products) < P:
            points = np.arange(max(P, BLOCK_PATHS))[:, None]
            self.wide_rows = (self.rows + self.nrows * points).ravel()
            self.products = np.empty((len(points), terms), dtype=complex)
        # the indices are in range, and mode="raise" would buffer the take
        vals = self._table(X).take(self.column, axis=1, out=self.products[:P], mode="clip")
        # this operand order keeps the bits of self.coeffs * vals
        np.multiply(self.coeffs, vals, out=vals)
        # ufunc.at adds in index order from 0 and complex addition is part
        # by part, so each part of a row gets the bits of a bincount of that
        # part: never -0.0, and an infinite or NaN imaginary sum leaves the
        # real sum as it is
        sums = np.zeros(P * self.nrows, dtype=complex)
        np.add.at(sums, self.wide_rows[:P * terms], vals.ravel())
        return sums.reshape(x.shape[:-1] + (self.nrows,))

    def _table(self, X: np.ndarray) -> np.ndarray:
        """The (P, width) monomial table at the rows of X."""
        P, n = X.shape
        K = self.max_exp + 1
        table = np.empty((K, P, n), dtype=complex)
        table[0] = 1.0
        for k in range(1, K):
            np.multiply(table[k - 1], X, out=table[k])
        mono = np.empty((P, self.width), dtype=complex)
        np.copyto(mono[:, :K * n].reshape(P, K, n), table.transpose(1, 0, 2))
        for columns, prefix, power in self.levels:
            np.multiply(mono.take(prefix, axis=1), mono.take(power, axis=1),
                        out=mono[:, columns])
        return mono


def _as_system(f) -> PolySystem:
    return f if isinstance(f, PolySystem) else PolySystem(list(f))


@dataclass(frozen=True)
class Homotopy:
    """h(x, t) = (1 - t) * target + gamma * t * start."""

    target: PolySystem
    start: PolySystem
    gamma: complex = 1.0

    def __post_init__(self):
        target = _as_system(self.target)
        start = _as_system(self.start)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "start", start)
        if len(target) != len(start) or target.nvars != start.nvars:
            raise ContinuationError("target and start systems must match in shape")
        if not abs(abs(self.gamma) - 1.0) <= 1e-12:  # NaN too
            raise ContinuationError("gamma must lie on the unit circle")
        # one stacked system: rows [0, m) are the target, [m, 2m) the start
        object.__setattr__(self, "_both",
                           PolySystem(list(target.polys) + list(start.polys)))

    def evaluate(self, x, t) -> tuple:
        """h, dh/dx and dh/dt at x, from one monomial table: (m,), (m, n)
        and (m,) at a point with a scalar t, or (P, m), (P, m, n) and (P, m)
        at a (P, n) batch with one t per row."""
        sums = self._both._sums(x)
        m, n = len(self.target), self.target.nvars
        f, g = sums[..., :m], sums[..., m:2 * m]
        jac = sums[..., 2 * m:].reshape(sums.shape[:-1] + (2 * m, n))
        t = np.asarray(t, dtype=float)[..., None]
        # the products and sums of (1 - t) f + gamma t g, operand for operand
        a, b = 1.0 - t, self.gamma * t
        h = a * f
        h += b * g
        dh_dx = a[..., None] * jac[..., :m, :]
        dh_dx += b[..., None] * jac[..., m:, :]
        dh_dt = self.gamma * g
        dh_dt -= f
        return h, dh_dx, dh_dt

    def end(self, which: int):
        """_newton's system for the target (which = 0) or start (1) rows of
        the one stacked evaluation: at a (P, n) batch, the (P, m) values and
        (P, m, n) Jacobians of that system alone, bit for bit."""
        rows = slice(which * len(self.target), (which + 1) * len(self.target))
        both = self._both.evaluate_and_jacobian
        return lambda z, _=None: tuple(a[:, rows] for a in both(z))


@dataclass(frozen=True)
class TrackResult:
    endpoint: np.ndarray
    status: str  # converged | diverged | step_underflow | no_real_solution | settle_failed
    residual: float
    steps: int
    max_imag: float
    trajectory: tuple = field(default=(), compare=False, repr=False)
    #: work counters, in no report: Newton updates of the corrector and the
    #: endgame polish, and rejected steps
    newton_updates: int = field(default=0, compare=False)
    rejected_steps: int = field(default=0, compare=False)
    #: in no report either: the 2-norm condition number of the target
    #: Jacobian at the endpoint, inf where the endpoint or that Jacobian is
    #: not finite or the Jacobian is singular; nan on a result that was not
    #: tracked (a settle_failed deformation step)
    condition: float = field(default=math.nan, compare=False)


def _solve(A: np.ndarray, b: np.ndarray) -> tuple:
    """Solve the stacked systems A[k] y = b[k].  Returns y and the list of
    the k whose A[k] is singular; their rows of y are zero and the other
    rows are unaffected."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        y = np.zeros_like(b)
        singular = []
        for k in range(len(A)):
            try:
                y[k] = np.linalg.solve(A[k], b[k])
            except np.linalg.LinAlgError:
                singular.append(k)
        return y, singular


def _newton(system, x, tol, max_iter):
    """Newton iteration on each row of the (P, n) batch x, to the per-row
    tolerances tol.  system(z, rows) gives the residuals and the Jacobians
    of the system at the points z, which stand for the rows `rows` of the
    batch.  A row checks its residual before each update, so an exact
    solution comes back bit for bit unchanged, and stops at a singular
    Jacobian.  A row makes at most max_iter + 1 updates, and its residual is
    checked once more after the last.  Returns (x, ok, updates) with the
    last iterate of every row and its number of updates."""
    x = x.copy()
    ok = np.zeros(len(x), dtype=bool)
    # a row that leaves the loop in iteration k has made k updates
    updates = np.full(len(x), max_iter + 1)
    rows, z = np.arange(len(x)), x
    for made in range(max_iter + 1):
        r, J = system(z, rows)
        done = _row_norms(r) <= tol
        finished = np.count_nonzero(done)
        if finished:
            ended = rows[done]
            x[ended], ok[ended], updates[ended] = z[done], True, made
            if finished == len(rows):
                return x, ok, updates
            keep = ~done
            rows, z, tol, r, J = rows[keep], z[keep], tol[keep], r[keep], J[keep]
        dz, singular = _solve(J, r)
        if singular:
            ended = rows[singular]
            x[ended], updates[ended] = z[singular], made
            if len(singular) == len(rows):
                return x, ok, updates
            keep = np.ones(len(rows), dtype=bool)
            keep[singular] = False
            rows, z, tol, dz = rows[keep], z[keep], tol[keep], dz[keep]
        z = z - dz
    ok[rows] = _row_norms(system(z, rows)[0]) <= tol
    x[rows] = z
    return x, ok, updates


def track_paths(h: Homotopy, starts, record: bool = False) -> list:
    """Track solutions of the start system from t = 1 to the target.

    Euler prediction on the Davidenko equation, Newton correction at each
    accepted t, adaptive halving/doubling of the step, then a final Newton
    polish on the target at t = 0.  The paths advance in lockstep, so each
    step evaluates and solves them as one batch of up to _batch_rows(h)
    rows: max(BLOCK_PATHS, BATCH_TERMS // T) for a stacked system of T
    terms, so that its (rows, T) products stay within
    BATCH_TERMS whenever T >= BATCH_TERMS / BLOCK_PATHS.  Each Newton
    iterate evaluates h, dh/dx and dh/dt from one monomial table, and the
    predictor solves with the dh/dx and dh/dt kept from the accepted
    point, so it evaluates nothing.  Each path keeps its own t, step size
    and counters and leaves the batch when it ends, and a new start takes
    its row at once, so the batch stays full until the starts run out.
    Ended paths get the endgame and their final residuals in chunks of the
    same rows.  A path's result does not depend on the others, nor on the
    batch size; results come back in the order of the starts.

    More than BLOCK_PATHS starts are dealt out in turn over c processes, one
    per core this process may run on, but no more than there are batches of
    BLOCK_PATHS among the first cores * BLOCK_PATHS starts: this process
    tracks the starts 0, c, 2c, ... itself, and each of c - 1 forked
    processes tracks the starts k, k + c, ... for one k and sends back its
    results, or the exception it raised, over a pipe.  The results are the
    same as in one process.  With one core, at most BLOCK_PATHS starts, no
    fork on the platform, or in a daemonic process, every path is tracked in
    this process.
    """
    starts = iter(starts)
    cores = _usable_cores()
    head = list(itertools.islice(starts, cores * BLOCK_PATHS))
    starts = itertools.chain(head, starts)
    processes = min(cores, -(-len(head) // BLOCK_PATHS))
    if processes > 1:
        import multiprocessing
        # fork, not spawn: a forked process inherits the homotopy and the
        # start iterator and imports nothing again.  A daemonic process,
        # such as a Pool worker, may not start processes.
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return _track_forked(multiprocessing.get_context("fork"), h, starts,
                                 record, processes)
    return _track_lockstep(h, starts, record)


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _track_forked(ctx, h: Homotopy, starts, record: bool, processes: int) -> list:
    """track_paths over `processes` processes; see there.  Every forked process
    is ended and joined before this returns or raises."""
    workers = []  # (process, receiving end of its pipe)
    try:
        for k in range(1, processes):
            receiver, sender = ctx.Pipe(duplex=False)
            # the fork copies the iterator, so each share starts from start 0
            worker = ctx.Process(target=_track_share, args=(
                sender, h, itertools.islice(starts, k, None, processes), record))
            worker.start()
            workers.append((worker, receiver))
            sender.close()
        shares = [_track_lockstep(h, itertools.islice(starts, 0, None, processes),
                                  record)]
        for worker, receiver in workers:
            try:
                share = receiver.recv()
            except EOFError:
                worker.join()
                raise ContinuationError(
                    "a path-tracking process ended without results "
                    f"(exit code {worker.exitcode})") from None
            if isinstance(share, Exception):
                raise share
            shares.append(share)
    finally:
        for worker, receiver in workers:
            worker.terminate()
            worker.join()
            receiver.close()
    results = [None] * sum(map(len, shares))
    for k, share in enumerate(shares):
        results[k::processes] = share
    return results


def _track_share(sender, h: Homotopy, starts, record: bool) -> None:
    """The body of a forked tracking process: its results, or the exception
    it raised, go to the pipe."""
    try:
        out = _track_lockstep(h, starts, record)
    except Exception as exc:
        out = exc
    sender.send(out)
    sender.close()


def _batch_rows(h: Homotopy) -> int:
    """The rows of one lockstep batch of h; see track_paths."""
    return max(BLOCK_PATHS, BATCH_TERMS // h._both.terms)


def _track_lockstep(h: Homotopy, starts, record: bool) -> list:
    """track_paths in this process."""
    batch = _batch_rows(h)
    deg = max(h.target.degrees, default=1)
    deg_h = max(deg, max(h.start.degrees, default=1))
    m, n = len(h.target), h.target.nvars
    results = []  # per start, filled in as chunks of ended paths finish
    trajs = [] if record else None  # per start
    # (start, point, whether it reached T_CUTOFF undiverged, steps, Newton
    # updates, rejected steps) of paths awaiting the endgame
    ended = []

    # the live paths, compacted together as paths end: start index, point,
    # dh/dt and dh/dx at the point and its t (the predictor's system), t,
    # step size, accepted steps in a row, step count, Newton updates and
    # rejected steps
    idx = np.zeros(0, int)
    x = np.zeros((0, n), dtype=complex)
    hdot = np.zeros((0, m), dtype=complex)
    jac = np.zeros((0, m, n), dtype=complex)
    t, dt = np.zeros(0), np.zeros(0)
    accepts, steps = np.zeros(0, int), np.zeros(0, int)
    updates, rejected = np.zeros(0, int), np.zeros(0, int)
    more = True

    while True:
        if more and idx.size < batch:
            new = [np.asarray(x0, dtype=complex) for x0 in
                   itertools.islice(starts, batch - idx.size)]
            more = len(new) == batch - idx.size
            if any(x0.shape != (n,) for x0 in new):
                raise ContinuationError(f"every start point needs {n} coordinates")
            if new:
                X, k = np.array(new), len(new)
                value, jac_new, hdot_new = h.evaluate(X, np.ones(k))
                for res in _row_norms(value):
                    if not res <= TOL_START:  # NaN too
                        raise ContinuationError(
                            "start point is not on the start system "
                            f"(residual {res:.2e})")
                if record:
                    trajs += [[(1.0, x0.copy())] for x0 in X]
                zero = np.zeros(k, int)
                fresh = (np.arange(len(results), len(results) + k), X, hdot_new,
                         jac_new, np.ones(k), np.full(k, DT_INIT), zero, zero, zero,
                         zero)
                idx, x, hdot, jac, t, dt, accepts, steps, updates, rejected = (
                    np.concatenate(pair) for pair in zip(
                        (idx, x, hdot, jac, t, dt, accepts, steps, updates, rejected),
                        fresh))
                results += [None] * k
        if not idx.size:
            break

        step = np.minimum(dt, t - T_CUTOFF)
        t_new = t - step
        dxdt, singular = _solve(jac, -hdot)
        # a row whose predictor failed is corrected too, and then rejected
        x_pred = x - step[:, None] * dxdt
        corr_tol = NEWTON_TOL * _scale(x_pred, deg_h)

        def system(z, rows):
            # _newton's first call is on every row, and its dh/dx and dh/dt
            # become the arrays that later calls store their rows into
            nonlocal hdot_new, jac_new
            if len(rows) == len(t_new):
                value, jac_new, hdot_new = h.evaluate(z, t_new)
                return value, jac_new
            value, dh_dx, dh_dt = h.evaluate(z, t_new[rows])
            jac_new[rows], hdot_new[rows] = dh_dx, dh_dt
            return value, dh_dx

        x_corr, ok, made = _newton(system, x_pred, corr_tol, MAX_NEWTON)
        if singular:
            ok[singular] = False
        steps += 1
        updates += made
        # an accepted row's last evaluation was at its new point and t
        if ok.all():
            x, hdot, jac, t = x_corr, hdot_new, jac_new, t_new
            accepts += 1
        else:
            x = np.where(ok[:, None], x_corr, x)
            hdot = np.where(ok[:, None], hdot_new, hdot)
            jac = np.where(ok[:, None, None], jac_new, jac)
            t = np.where(ok, t_new, t)
            rejected += ~ok
            accepts = np.where(ok, accepts + 1, 0)
            dt = np.where(ok, dt, dt * 0.5)
        if record:
            for k, t_k in zip(np.flatnonzero(ok).tolist(), t[ok].tolist()):
                trajs[idx[k]].append((t_k, x[k].copy()))

        # a row grows its step only after an accepted one
        grow = accepts >= GROW_AFTER
        accepts[grow] = 0
        np.minimum(dt * 2.0, DT_MAX, out=dt, where=grow)
        diverged = ok & (_row_norms(x) > DIVERGENCE)
        # a path ends at T_CUTOFF, diverged, at the step cap or on a
        # rejection below DT_MIN; _finish labels it
        keep = ((t > T_CUTOFF) & (steps < MAX_STEPS) & (ok | (dt >= DT_MIN))
                & ~diverged)
        if not keep.all():
            out = ~keep
            reached = (t[out] <= T_CUTOFF) & ~diverged[out]
            ended += zip(idx[out].tolist(), x[out], reached.tolist(),
                         steps[out].tolist(), updates[out].tolist(),
                         rejected[out].tolist())
            idx, x, hdot, jac, t, dt, accepts, steps, updates, rejected = (
                a[keep] for a in
                (idx, x, hdot, jac, t, dt, accepts, steps, updates, rejected))
            while len(ended) >= batch:
                _finish(h, deg, ended[:batch], results, trajs)
                del ended[:batch]
    if ended:
        _finish(h, deg, ended, results, trajs)
    return results


def track_path(h: Homotopy, x0, record: bool = False) -> TrackResult:
    """Track one solution of the start system; see track_paths."""
    return track_paths(h, [x0], record)[0]


def _scale(points: np.ndarray, deg: int) -> np.ndarray:
    """1 + |x|^deg, inf where it overflows, for each row x of points: the one
    scale of the tracker's residual tolerances, since far from the origin
    the residual floor is about eps * |x|^deg."""
    with np.errstate(over="ignore"):
        return 1.0 + _row_norms(points) ** deg


def _row_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=1) of a complex (P, k) array, bit for bit: the
    expression that function evaluates, without its argument handling."""
    return np.sqrt(np.add.reduce((a.conj() * a).real, axis=1))


def _finish(h: Homotopy, deg: int, ended: list, results: list, trajs) -> None:
    """Endgame and final residuals of a chunk of ended paths: a Newton
    polish directly on the target rows of h's stacked system for the paths
    that reached T_CUTOFF, then each path's TrackResult into results: far
    or not finite is diverged, reached with a good residual converged, and
    any other step_underflow.  trajs is None unless trajectories are kept."""
    ids = [path[0] for path in ended]
    X = np.array([path[1] for path in ended])
    reached = np.array([path[2] for path in ended], dtype=bool)
    updates = np.array([path[4] for path in ended])
    target = h.end(0)
    end = np.flatnonzero(reached)
    if end.size:
        X[end], _, polish = _newton(target, X[end],
                                    1e-4 * (TOL_END_REL * _scale(X[end], deg)), POLISH_STEPS)
        updates[end] += polish
        if trajs is not None:
            for i in end:
                trajs[ids[i]].append((0.0, X[i].copy()))

    residual, condition = np.full(len(X), np.inf), np.full(len(X), np.inf)
    finite = np.all(np.isfinite(X), axis=1)
    if finite.any():
        values, jac = target(X[finite])
        residual[finite] = _row_norms(values)
        # sigma_max / sigma_min of the target Jacobian, left inf where it
        # is not finite or sigma_min is 0.  The real form [[Re, -Im], [Im,
        # Re]] has the same singular values, each twice, and its SVD is the
        # real LAPACK routine that the rest of the package already loads.
        tame = np.all(np.isfinite(jac), axis=(1, 2))
        J = jac[tame]
        s = np.linalg.svd(np.block([[J.real, -J.imag], [J.imag, J.real]]), compute_uv=False)
        with np.errstate(over="ignore"):
            condition[np.flatnonzero(finite)[tame]] = np.divide(
                s[:, 0], s[:, -1], out=np.full(len(s), np.inf), where=s[:, -1] > 0)
    far = ~finite | (_row_norms(X) > DIVERGENCE)
    good = residual <= TOL_END_REL * _scale(X, deg)
    status = np.where(far, "diverged", np.where(reached & good, "converged",
                                                "step_underflow")).tolist()
    max_imag = np.max(np.abs(X.imag), axis=1, initial=0.0)
    for k, (i, _, _, n_steps, _, n_rejected) in enumerate(ended):
        results[i] = TrackResult(endpoint=X[k].copy(), status=status[k],
                                 residual=float(residual[k]), steps=n_steps,
                                 max_imag=float(max_imag[k]),
                                 trajectory=() if trajs is None else tuple(trajs[i]),
                                 newton_updates=int(updates[k]),
                                 rejected_steps=n_rejected,
                                 condition=float(condition[k]))


def solve_total_degree(f, seed=None, budget: int | None = None,
                       record: bool = False) -> list:
    """Solve a square system by tracking all product-of-degrees start roots.

    The start system is {x_i^{d_i} = 1}, whose solutions are products of
    roots of unity; gamma is drawn once per solve from the unit circle.  A
    `budget` is None or a nonnegative integer that the paths must not exceed.
    """
    f = _as_system(f)
    n = f.nvars
    if len(f) != n:
        raise ContinuationError(
            f"system must be square, got {len(f)} equations in {n} variables")
    degrees = f.degrees
    if any(d < 1 for d in degrees):
        raise ContinuationError("every equation must have positive degree")
    total = prod(degrees)
    if budget is not None and total > _natural(budget, ContinuationError, "budget"):
        raise PathBudgetError(
            f"total-degree start system needs {total} paths, budget is {budget}")

    rng = np.random.default_rng(seed)
    gamma = complex(np.exp(2j * np.pi * rng.uniform()))
    start = []
    for i, d in enumerate(degrees):
        xi = MultiPoly.variable(n, i)
        start.append(xi ** d - MultiPoly.constant(n, 1.0))
    h = Homotopy(target=f, start=PolySystem(start), gamma=gamma)

    unity = [np.exp(2j * np.pi * np.arange(d) / d) for d in degrees]
    return track_paths(h, itertools.product(*unity), record=record)


# ---------------------------------------------------------------------------
# pinned frameworks as polynomial systems


def free_coordinate_positions(n: int, d: int) -> list:
    """(node, axis) pairs that stay variable after pin_moving_frame, in
    row-major order: the True entries of free_coordinate_mask."""
    return [tuple(pos) for pos in np.argwhere(free_coordinate_mask(n, d)).tolist()]


def _require_pinned(p: Configuration) -> None:
    pinned = pin_moving_frame(p)
    if np.max(np.abs(pinned.coords - p.coords)) > 1e-9:
        raise FrameworkError("configuration must be pinned via pin_moving_frame")


def pinned_member_system(sys: MemberConstraintSystem, p: Configuration):
    """Member constraint polynomials of a pinned framework, in the free
    coordinates only.  Returns (PolySystem, free positions, free values)."""
    _require_pinned(p)
    n, d = sys.graph.n, sys.graph.d
    free = free_coordinate_positions(n, d)
    coords = _pinned_coordinates(n, d, MultiPoly, len(free))
    return (PolySystem(member_polynomials(sys, coords)), free,
            p.coords[free_coordinate_mask(n, d)])


def _restore_full(x, n, d) -> np.ndarray:
    full = np.zeros((n, d), dtype=complex)
    full[free_coordinate_mask(n, d)] = x
    return full


@dataclass(frozen=True)
class DeformationStep:
    """One hyperplane push: the (complex) endpoint as an n x d array, the
    raw tracking result, the reality flag at TAU_IMAG, and the member
    residual of the real part."""

    point: np.ndarray
    result: TrackResult
    real: bool
    member_residual: float


def deform_framework(sys: MemberConstraintSystem, p: Configuration,
                     direction="flex", epsilon: float = 1e-2, steps: int = 1,
                     seed=None) -> list:
    """Push a pinned framework off p along a moving hyperplane.

    Adjoins l(x) = v^T x - v^T anchor - eps to the member system and tracks
    the single path from the anchor as the offset grows from 0 to eps,
    re-anchoring at each accepted endpoint `steps` times (an integer >= 1,
    not a bool); v is the first flex at p for direction="flex", else a
    vector over the free or all n*d coordinates.  The rectangular system is
    squared by a seeded random complex matrix; the homotopy is a real
    parameter homotopy (gamma = 1).
    An anchor that does not settle ends the walk with a settle_failed step.
    """
    # an endpoint of the push has norm at least |eps| - |anchor|, so a push
    # much further than DIVERGENCE could only diverge (and overflows first)
    if isinstance(epsilon, (bool, np.bool_)) or not abs(epsilon) <= DIVERGENCE:
        raise FrameworkError(f"epsilon must be a number of size at most {DIVERGENCE:g}, "
                             f"got {epsilon}")
    steps = _natural(steps, FrameworkError, "steps", start=1)
    members, _, p_free = pinned_member_system(sys, p)
    n, d = sys.graph.n, sys.graph.d
    N = p_free.size
    rng = np.random.default_rng(seed)

    if isinstance(direction, str):
        if direction != "flex":
            raise FrameworkError(
                f"direction must be \"flex\" or a vector, got {direction!r}")
        J = members.jacobian(p_free.astype(complex)).real
        null = numerical_nullspace(J)
        if null.shape[1] == 0:
            raise FrameworkError("no flex direction at p: pinned Jacobian has full rank")
        v = null[:, 0]
    else:
        v = np.asarray(direction, dtype=float).reshape(-1)
        if not np.isfinite(v).all():
            raise FrameworkError("direction must have finite entries")
        if v.size == n * d:
            v = v.reshape(n, d)[free_coordinate_mask(n, d)]
        if v.size != N:
            raise FrameworkError(f"direction must have {N} (or {n * d}) entries")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise FrameworkError("zero direction vector")
    v = v / norm

    m = len(members)
    M = (rng.normal(size=(N, m + 1)) + 1j * rng.normal(size=(N, m + 1)))

    # v.x: the coefficient v[i] on x_i, and no term where v[i] is zero
    linear = MultiPoly(N, dict(zip(map(tuple, np.eye(N, dtype=int).tolist()), v)))

    # M [g; v.x - c] is affine in the plane offset c, so the members and
    # v.x are squared up once and each push only adds its constant -c M[:, m]
    polys = list(members.polys) + [linear]
    rows = []
    for r in range(N):
        acc = MultiPoly.constant(N, 0.0)
        for c, poly in zip(M[r], polys):
            acc = acc + poly * c
        rows.append(acc)

    def squared(offset):
        const = -MultiPoly.constant(N, offset)
        return PolySystem([row + const * M[r, m] for r, row in enumerate(rows)])

    results = []
    anchor = p_free.astype(complex)
    for _ in range(steps):
        shift = complex(v @ anchor)
        h = Homotopy(target=squared(shift + epsilon), start=squared(shift), gamma=1.0)
        # settle the anchor exactly onto the start system before tracking;
        # after the first push it is complex and only approximately on it
        start = h.end(1)
        settled, ok, _ = _newton(start, anchor[None], np.array([1e-12]), 10)
        anchor = settled[0]
        if ok[0]:
            res = track_path(h, anchor)
            member_res = float(np.max(np.abs(
                members.evaluate(res.endpoint.real.astype(complex)).real)))
        else:
            res = TrackResult(endpoint=anchor, status="settle_failed",
                              residual=float(np.linalg.norm(start(anchor[None])[0][0])),
                              steps=0, max_imag=float(np.max(np.abs(anchor.imag))))
            member_res = float("nan")
        real = res.max_imag <= TAU_IMAG
        if res.status == "converged" and not real:
            res = replace(res, status="no_real_solution")
        results.append(DeformationStep(
            point=_restore_full(res.endpoint, n, d),
            result=res, real=real, member_residual=member_res))
        if res.status in ("diverged", "step_underflow", "settle_failed"):
            break
        anchor = res.endpoint
    return results


@dataclass(frozen=True)
class EpsilonRigidityResult:
    verdict: str  # epsilon_locally_rigid | deformation_found | inconclusive
    witnesses: tuple
    paths_total: int
    paths_converged: int
    paths_diverged: int
    paths_underflow: int

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "witnesses": [w.coords.tolist() for w in self.witnesses],
            "paths_total": self.paths_total,
            "paths_converged": self.paths_converged,
            "paths_diverged": self.paths_diverged,
            "paths_underflow": self.paths_underflow,
        }


#: a negative search is trusted (epsilon_locally_rigid rather than
#: inconclusive) only when at least this fraction of paths resolved, i.e.
#: converged or visibly escaped to infinity.  Paths that stall near the
#: positive-dimensional complex components of the multiplier system are
#: expected and harvested anyway, but a run where almost nothing resolves
#: has no evidential value.
MIN_RESOLVED_FRACTION = 0.5

#: harvest threshold on |Im| of raw endpoints before real polishing; kept
#: loose on purpose, the 1e-10 polish residual does the real filtering
HARVEST_IMAG = 0.5

#: Gauss-Newton steps of the real polish of a harvested endpoint
REAL_POLISH_STEPS = 50


def _polish_real(target: PolySystem, X: np.ndarray) -> tuple:
    """Gauss-Newton on a real system, here {members = 0, sphere = 0}, at
    each row of the (A, N) batch X.  A row stops when its worst residual is
    at most 1e-12 or no better than before its last step, at a non-finite
    step, or after REAL_POLISH_STEPS steps.  Each step is the minimum-norm
    least-squares solution from _least_squares_steps, and a row's result
    does not depend on the other rows.  Returns the last iterate and its
    worst residual of each row."""
    X = np.array(X, dtype=float)
    rows = np.arange(len(X))
    values, jac = target.evaluate_and_jacobian(X.astype(complex))
    r, J = values.real, jac.real
    worst = np.max(np.abs(r), axis=1)
    prev = np.full(len(X), np.inf)
    for _ in range(REAL_POLISH_STEPS):
        # a NaN residual is neither small nor worse, so its row steps on
        go = ~((worst[rows] <= 1e-12) | (worst[rows] >= prev[rows]))
        rows, r, J = rows[go], r[go], J[go]
        if not rows.size:
            break
        prev[rows] = worst[rows]
        step = _least_squares_steps(J, r)
        finite = np.all(np.isfinite(step), axis=1)
        rows = rows[finite]
        X[rows] -= step[finite]
        values, jac = target.evaluate_and_jacobian(X[rows].astype(complex))
        r, J = values.real, jac.real
        worst[rows] = np.max(np.abs(r), axis=1)
    return X, worst


def _least_squares_steps(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of each J[k] s = r[k], from a
    stacked SVD with np.linalg.lstsq's default cutoff: singular values at
    most eps * max(M, N) times the largest count as zero.  A row whose J[k]
    or r[k] is not finite, or whose solution overflows, gets a non-finite
    step."""
    A, M, N = J.shape
    step = np.full((A, N), np.nan)
    finite = np.all(np.isfinite(J), axis=(1, 2)) & np.all(np.isfinite(r), axis=1)
    U, s, Vt = np.linalg.svd(J[finite], full_matrices=False)
    kept = s > np.finfo(float).eps * max(M, N) * s[:, :1]
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.divide(np.sum(U * r[finite, :, None], axis=1), s,
                      out=np.zeros_like(s), where=kept)
        step[finite] = np.sum(Vt * c[:, :, None], axis=1)
    return step


def epsilon_rigidity_check(sys: MemberConstraintSystem, p: Configuration,
                           epsilon: float, seed=None,
                           budget: int = DEFAULT_PATH_BUDGET) -> EpsilonRigidityResult:
    """Search the epsilon-sphere around pinned p for points of the variety.

    Sums the squares of the member constraints into one hypersurface
    equation S, intersects with the sphere s, and solves the critical-point
    conditions of Euclidean distance to a random point: the multiplier form
    lam0 (x - y) - lam1 grad S - lam2 grad s = 0 on a random affine chart
    a . lam = 1.  The multiplier vector is allowed to vanish on x - y
    because grad S is zero everywhere on the real intersection, so every
    real point of {g = 0, s = 0} appears among the (typically singular)
    endpoints.  Candidates are harvested from all endpoints, polished
    against the real system, and accepted as witnesses at residual 1e-10.
    """
    if isinstance(epsilon, (bool, np.bool_)) or not 0.0 < epsilon < math.inf:
        raise FrameworkError(f"epsilon must be a positive finite number, got {epsilon}")
    try:
        square = float(epsilon ** 2)
    except OverflowError:
        square = math.inf
    # above about 1.3e154 the square overflows, below about 1.6e-162 it is 0
    if not 0.0 < square < math.inf:
        raise FrameworkError(
            f"epsilon must have a positive finite square, got {epsilon} (square {square})")
    members, _, p_free = pinned_member_system(sys, p)
    n, d = sys.graph.n, sys.graph.d
    N = p_free.size
    rng = np.random.default_rng(seed)

    sphere = MultiPoly.constant(N, -square)
    for i in range(N):
        diff = MultiPoly.variable(N, i) - MultiPoly.constant(N, p_free[i])
        sphere = sphere + diff * diff

    S = MultiPoly.constant(N, 0.0)
    for g in members.polys:
        S = S + g * g

    y = p_free + epsilon * rng.normal(size=N)
    a = rng.normal(size=3)
    while np.linalg.norm(a) < 0.3:
        a = rng.normal(size=3)

    nv = N + 3  # x variables then lam0, lam1, lam2
    lam = [MultiPoly.variable(nv, N + i) for i in range(3)]
    eqs = [S.lift(nv), sphere.lift(nv)]
    for i in range(N):
        xi = MultiPoly.variable(nv, i)
        row = (lam[0] * (xi - MultiPoly.constant(nv, y[i]))
               - lam[1] * S.diff(i).lift(nv)
               - lam[2] * sphere.diff(i).lift(nv))
        eqs.append(row)
    chart = (lam[0] * a[0] + lam[1] * a[1] + lam[2] * a[2]
             - MultiPoly.constant(nv, 1.0))
    eqs.append(chart)

    results = solve_total_degree(PolySystem(eqs), seed=seed, budget=budget)

    # harvest the finite endpoints whose x part is nearly real, and polish
    # their real parts as one batch
    real_system = PolySystem(list(members.polys) + [sphere])
    X = np.array([res.endpoint[:N] for res in results]).reshape(-1, N)
    harvest = np.all(np.isfinite(X), axis=1)
    harvest[harvest] = np.max(np.abs(X[harvest].imag), axis=1) <= HARVEST_IMAG
    polished, residual = _polish_real(real_system, X[harvest].real)
    witnesses = []
    seen = set()
    for point, res in zip(polished, residual.tolist()):
        if not res <= 1e-10:  # a NaN residual is no witness
            continue
        key = tuple(np.round(point, 6))
        if key in seen:
            continue
        seen.add(key)
        witnesses.append(Configuration(_restore_full(point, n, d).real))

    counts = {"converged": 0, "diverged": 0, "step_underflow": 0}
    for res in results:
        counts[res.status] = counts.get(res.status, 0) + 1

    resolved = counts["converged"] + counts["diverged"]
    if witnesses:
        verdict = "deformation_found"
    elif resolved < MIN_RESOLVED_FRACTION * len(results):
        verdict = "inconclusive"
    else:
        verdict = "epsilon_locally_rigid"
    return EpsilonRigidityResult(
        verdict=verdict,
        witnesses=tuple(witnesses),
        paths_total=len(results),
        paths_converged=counts["converged"],
        paths_diverged=counts["diverged"],
        paths_underflow=counts["step_underflow"],
    )
