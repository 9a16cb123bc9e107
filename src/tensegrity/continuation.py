"""Homotopy continuation over complex polynomial systems.

Complex sparse polynomials on the core shared with `symbolic`, Davidenko
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

from .framework import Configuration, FrameworkError, MemberConstraintSystem
from .rigidity import numerical_nullspace, pin_moving_frame
from .symbolic import SparsePoly

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

#: paths tracked together in one lockstep batch; bounds the evaluator's
#: temporaries, which grow with paths x terms
BLOCK_PATHS = 64

#: refuse total-degree solves beyond this many paths unless overridden
DEFAULT_PATH_BUDGET = 100_000


class ContinuationError(ValueError):
    """Raised for malformed systems or invalid tracking inputs."""


class PathBudgetError(ContinuationError):
    """Raised when a solve would track more paths than the configured budget."""


class MultiPoly(SparsePoly):
    """Sparse multivariate polynomial with complex coefficients."""

    __slots__ = ()
    coefficient = complex
    error = ContinuationError
    _width = staticmethod(int)

    def __init__(self, nvars: int, terms=None):
        super().__init__(int(nvars), terms)

    @property
    def nvars(self) -> int:
        return self.ring

    @classmethod
    def from_univariate(cls, coeffs) -> "MultiPoly":
        """Dense univariate coefficients, highest degree first (numpy order)."""
        coeffs = list(coeffs)
        deg = len(coeffs) - 1
        return cls(1, {(deg - k,): c for k, c in enumerate(coeffs)})

    degree = SparsePoly.total_degree

    def lift(self, nvars: int) -> "MultiPoly":
        """Re-embed into a larger ring, as its leading variables."""
        if self.nvars > nvars:
            raise ContinuationError("lift does not fit")
        pad = (0,) * (nvars - self.nvars)
        return MultiPoly(nvars, {e + pad: c for e, c in self.terms.items()})

    def evaluate(self, x) -> complex:
        return complex(_Batched.of([self], self.nvars, 1, [0]).evaluate(x)[0])

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.terms!r})"


class _Batched:
    """Shared-monomial evaluator for many polynomials at once, at one point
    or at each row of a (P, nvars) batch of points.

    Each distinct monomial is a column of one (P, W) table.  The first
    (max_exp + 1) * nvars columns are the powers x_j^k (column k * nvars + j),
    which are every monomial in at most one variable; the constant 1 is
    x_0^0 in column 0.  A monomial in L >= 2 variables is its prefix, the same
    monomial without its last variable, times that variable's power, so it
    is built with one product; prefixes that no polynomial uses are added.
    The columns after the powers hold these monomials level by level,
    L = 2, 3, ..., and each level is one two-factor reduction over
    (prefix, power) column pairs.  The products run left to right over the
    variables, like a product over all of them with the x^0 = 1 factors
    left out.  At finite points those factors are exact, so leaving them
    out can change only the sign of a zero, which the bincount sum drops.
    """

    def __init__(self, coeffs, rows, exponents, monomial, nrows):
        """Terms as arrays: each term's coefficient, output row and monomial,
        an index into the distinct exponent tuples, the rows of `exponents`."""
        self.nrows = nrows
        self.term_arrays = coeffs, rows, exponents, monomial
        # 2-D, so that it multiplies a (P, T) batch as a 1-D T at one point
        self.coeffs = coeffs[None]
        self.empty = coeffs.size == 0
        if self.empty:
            return
        # bins of the interleaved real and imaginary parts of the terms at
        # one point; the bins of a batch are built on first use (_batch_bins)
        self.bins = (2 * rows[:, None] + np.arange(2)).ravel()
        self.wide_bins = self.bins
        E, nvars = exponents, exponents.shape[1]
        self.max_exp = int(E.max(initial=0))
        power = E * nvars + np.arange(nvars)  # column of x_j^e
        level = np.count_nonzero(E, axis=1)
        count = np.cumsum(E != 0, axis=1)  # nonzero variables up to each j
        # column of each monomial's part in its first k variables, as k grows
        # from 0 (the constant 1)
        column = np.zeros(len(E), dtype=np.int64)
        self.width = (self.max_exp + 1) * nvars
        self.levels = []  # per level: (its columns, (u, 2) (prefix, power) pairs)
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
                                np.array(list(slot), dtype=np.int64)))
            column[wide] = self.width + at
            self.width += len(slot)
        self.inverse = column[monomial]

    @classmethod
    def of(cls, polys, nvars, nrows, rows) -> "_Batched":
        """The evaluator of polynomials with the given output rows."""
        sizes = [len(p.terms) for p in polys]
        coeffs = np.fromiter(
            itertools.chain.from_iterable(p.terms.values() for p in polys),
            dtype=complex, count=sum(sizes))
        # polynomials in a system share most monomials, so evaluate each
        # distinct exponent tuple once and scatter
        unique = {}
        monomial = np.array([unique.setdefault(e, len(unique))
                             for p in polys for e in p.terms], dtype=np.int64)
        exponents = np.array(list(unique), dtype=np.int64).reshape(-1, nvars)
        return cls(coeffs, np.repeat(np.asarray(rows, dtype=np.int64), sizes),
                   exponents, monomial, nrows)

    def jacobian(self) -> "_Batched":
        """The evaluator of every partial derivative, d row_i / d x_j in row
        i * nvars + j.  A term c x^e gives the terms c e_j x^(e - 1_j), in
        the order and with the coefficients of MultiPoly.diff (a complex
        times a small integer rounds once either way), but without building
        the derivative polynomials."""
        coeffs, rows, E, monomial = self.term_arrays
        n = E.shape[1]
        # the distinct lowered monomials, one per nonzero (monomial, j)
        u, j = np.nonzero(E)
        lowered = E[u]
        lowered[np.arange(len(u)), j] -= 1
        unique = {}
        index = np.zeros_like(E)
        index[u, j] = [unique.setdefault(e, len(unique))
                       for e in map(tuple, lowered.tolist())]
        exps = E[monomial]
        t, j = np.nonzero(exps)
        return _Batched(coeffs[t] * exps[t, j], rows[t] * n + j,
                        np.array(list(unique), dtype=np.int64).reshape(-1, n),
                        index[monomial[t], j], self.nrows * n)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        X = np.ascontiguousarray(x.reshape(-1, x.shape[-1]))
        P, n = X.shape
        if self.empty:
            return np.zeros(x.shape[:-1] + (self.nrows,), dtype=complex)
        # Each row of the batch comes out bit for bit as that point would
        # alone.  numpy's elementwise complex multiply may take a vector
        # kernel whose rounding differs from its scalar loop, and which one
        # it takes depends on the operands' layout, so every elementwise
        # complex product below has C-contiguous operands, as at a single
        # point.  A monomial is a reduction over the last axis of a
        # C-contiguous (P, u, 2) gather, which takes the scalar product
        # whatever P is (a * b on the two halves would take the vector
        # kernel).  One bincount sums the real and the imaginary parts of
        # each row in term order.
        K = self.max_exp + 1
        table = np.empty((K, P, n), dtype=complex)
        table[0] = 1.0
        for k in range(1, K):
            np.multiply(table[k - 1], X, out=table[k])
        mono = np.empty((P, self.width), dtype=complex)
        mono[:, :K * n] = table.transpose(1, 0, 2).reshape(P, K * n)
        for columns, pairs in self.levels:
            np.multiply.reduce(mono.take(pairs, axis=1), axis=2, out=mono[:, columns])
        vals = self.coeffs * mono.take(self.inverse, axis=1)
        sums = np.bincount(self._batch_bins(P), weights=vals.view(np.float64).ravel(),
                           minlength=2 * P * self.nrows)
        out = sums[0::2] + 1j * sums[1::2]
        return out.reshape(x.shape[:-1] + (self.nrows,))

    def _batch_bins(self, P: int) -> np.ndarray:
        """The bins of the terms at P points, row after row: a prefix of one
        array built for max(P, BLOCK_PATHS) points, which grows only when a
        larger batch comes."""
        size = P * len(self.bins)
        if len(self.wide_bins) < size:
            rows = np.arange(max(P, BLOCK_PATHS))[:, None]
            self.wide_bins = (self.bins + 2 * self.nrows * rows).ravel()
        return self.wide_bins[:size]


class PolySystem:
    """A list of MultiPoly over a shared variable list, with fast batched
    evaluation of the system and its Jacobian."""

    def __init__(self, polys):
        polys = [p for p in polys]
        if not polys:
            raise ContinuationError("empty polynomial system")
        nvars = polys[0].nvars
        if any(p.nvars != nvars for p in polys):
            raise ContinuationError("variable count mismatch in system")
        self.polys = polys
        self.nvars = nvars
        self._value = None
        self._jac = None

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    @property
    def degrees(self):
        return [p.degree() for p in self.polys]

    def _value_eval(self):
        if self._value is None:
            m = len(self.polys)
            self._value = _Batched.of(self.polys, self.nvars, m, range(m))
        return self._value

    def _jac_eval(self):
        if self._jac is None:
            self._jac = self._value_eval().jacobian()
        return self._jac

    def evaluate(self, x) -> np.ndarray:
        """Values at a point (m,), or at each row of a (P, n) batch (P, m)."""
        return self._value_eval().evaluate(x)

    def jacobian(self, x) -> np.ndarray:
        """Jacobian at a point (m, n), or at each row of a batch (P, m, n)."""
        flat = self._jac_eval().evaluate(x)
        return flat.reshape(flat.shape[:-1] + (len(self.polys), self.nvars))


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
        if abs(abs(self.gamma) - 1.0) > 1e-12:
            raise ContinuationError("gamma must lie on the unit circle")
        # one stacked evaluator: rows [0, m) are the target, [m, 2m) the start
        object.__setattr__(self, "_both",
                           PolySystem(list(target.polys) + list(start.polys)))

    # x is one point with a scalar t, or a (P, n) batch with one t per row.
    # The target and start halves of the stacked evaluation are copied to
    # C-contiguous arrays, so that they multiply as they would at a single
    # point (see _Batched.evaluate).

    def _halves(self, x) -> np.ndarray:
        """Target and start values at x, stacked: (2, m) or (2, P, m)."""
        both = self._both.evaluate(x)
        both = both.reshape(both.shape[:-1] + (2, -1))
        return np.ascontiguousarray(both.swapaxes(0, -2))

    def _combine(self, halves, t) -> np.ndarray:
        """h(x, t) from the halves at x."""
        fv, gv = halves
        t = np.asarray(t, dtype=float)[..., None]
        return (1.0 - t) * fv + self.gamma * t * gv

    def value(self, x, t) -> np.ndarray:
        return self._combine(self._halves(x), t)

    def jacobian_x(self, x, t) -> np.ndarray:
        both = self._both.jacobian(x)
        both = both.reshape(both.shape[:-2] + (2, -1, both.shape[-1]))
        fj, gj = np.ascontiguousarray(both.swapaxes(0, -3))
        t = np.asarray(t, dtype=float)[..., None, None]
        return (1.0 - t) * fj + self.gamma * t * gj

    def dh_dt(self, x) -> np.ndarray:
        return self._dh_dt(self._halves(x))

    def _dh_dt(self, halves) -> np.ndarray:
        fv, gv = halves
        return self.gamma * gv - fv


@dataclass(frozen=True)
class TrackResult:
    endpoint: np.ndarray
    status: str  # converged | diverged | step_underflow | no_real_solution
    residual: float
    steps: int
    max_imag: float
    trajectory: tuple = field(default=(), compare=False, repr=False)


def _norms(a: np.ndarray) -> np.ndarray:
    """2-norm of each row of a complex (P, k) array, by the dot products
    np.linalg.norm uses for one vector, so each equals that norm bit for bit."""
    re, im = a.real[:, None, :], a.imag[:, None, :]
    return np.sqrt(np.matmul(re, re.swapaxes(1, 2))[:, 0, 0]
                   + np.matmul(im, im.swapaxes(1, 2))[:, 0, 0])


def _one_plus_pow(norms: np.ndarray, deg: int) -> np.ndarray:
    """1 + norm ** deg per row, by the scalar pow (numpy's vectorised power
    may round differently); inf where it overflows."""
    out = []
    for v in norms.tolist():
        try:
            out.append(1.0 + v ** deg)
        except OverflowError:
            out.append(math.inf)
    return np.array(out)


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


def _newton(value, jacobian, x, tol, max_iter):
    """Newton iteration on each row of the (P, n) batch x, to the per-row
    tolerances tol.  value(z, rows) and jacobian(z, rows) evaluate the system
    at the points z, which stand for the rows `rows` of the batch.  A row
    checks its residual before each update, so an exact solution comes back
    bit for bit unchanged, and stops at a singular Jacobian.  A row makes at
    most max_iter + 1 updates, and its residual is checked once more after
    the last.  Returns (x, ok) with the last iterate of every row."""
    x = x.copy()
    ok = np.zeros(len(x), dtype=bool)
    rows, z = np.arange(len(x)), x
    for _ in range(max_iter + 1):
        r = value(z, rows)
        done = _norms(r) <= tol
        finished = np.count_nonzero(done)
        if finished:
            x[rows[done]] = z[done]
            ok[rows[done]] = True
            if finished == len(rows):
                return x, ok
            keep = ~done
            rows, z, tol, r = rows[keep], z[keep], tol[keep], r[keep]
        dz, singular = _solve(jacobian(z, rows), r)
        if singular:
            x[rows[singular]] = z[singular]
            if len(singular) == len(rows):
                return x, ok
            keep = np.ones(len(rows), dtype=bool)
            keep[singular] = False
            rows, z, tol, dz = rows[keep], z[keep], tol[keep], dz[keep]
        z = z - dz
    ok[rows] = _norms(value(z, rows)) <= tol
    x[rows] = z
    return x, ok


def _newton_on(system: PolySystem, x, tol, max_iter):
    """_newton on a system without a homotopy parameter."""
    return _newton(lambda z, rows: system.evaluate(z),
                   lambda z, rows: system.jacobian(z), x, tol, max_iter)


def track_paths(h: Homotopy, starts, record: bool = False) -> list:
    """Track solutions of the start system from t = 1 to the target.

    Euler prediction on the Davidenko equation, Newton correction at each
    accepted t, adaptive halving/doubling of the step, then a final Newton
    polish on the target at t = 0.  The paths advance in lockstep, so each
    step evaluates and solves them as one batch of up to BLOCK_PATHS rows.
    Each path keeps its own t, step size and counters and leaves the batch
    when it ends, and a new start takes its row at once, so the batch stays
    full until the starts run out.  Ended paths get the endgame and their
    final residuals in chunks of up to BLOCK_PATHS.  A path's result does
    not depend on the others; results come back in the order of the starts.

    More than BLOCK_PATHS starts are dealt out in turn over the c cores this
    process may run on: it tracks the starts 0, c, 2c, ... itself, and each
    of c - 1 forked processes tracks the starts k, k + c, ... for one k and
    sends back its results, or the exception it raised, over a pipe.  The
    results are the same as in one process.  With one core, at most
    BLOCK_PATHS starts, no fork on the platform, or in a daemonic process,
    every path is tracked in this process.
    """
    starts = iter(starts)
    head = list(itertools.islice(starts, BLOCK_PATHS + 1))
    starts = itertools.chain(head, starts)
    cores = _usable_cores()
    if len(head) > BLOCK_PATHS and cores > 1:
        import multiprocessing
        # fork, not spawn: a forked process inherits the homotopy and the
        # start iterator and imports nothing again.  A daemonic process,
        # such as a Pool worker, may not start processes.
        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return _track_forked(multiprocessing.get_context("fork"), h, starts,
                                 record, cores)
    return _track_lockstep(h, starts, record)


def _usable_cores() -> int:
    """The cores this process may run on; 1 where the platform cannot tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _track_forked(ctx, h: Homotopy, starts, record: bool, cores: int) -> list:
    """track_paths over `cores` processes; see there.  Every forked process
    is ended and joined before this returns or raises."""
    workers = []  # (process, receiving end of its pipe)
    try:
        for k in range(1, cores):
            receiver, sender = ctx.Pipe(duplex=False)
            # the fork copies the iterator, so each share starts from start 0
            worker = ctx.Process(target=_track_share, args=(
                sender, h, itertools.islice(starts, k, None, cores), record))
            worker.start()
            workers.append((worker, receiver))
            sender.close()
        shares = [_track_lockstep(h, itertools.islice(starts, 0, None, cores), record)]
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
        results[k::cores] = share
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


def _track_lockstep(h: Homotopy, starts, record: bool) -> list:
    """track_paths in this process."""
    target = h.target
    deg = max(target.degrees, default=1)
    deg_h = max(deg, max(h.start.degrees, default=1))
    results = []  # per start, filled in as chunks of ended paths finish
    trajs = [] if record else None  # per start
    ended = []    # (start, point, status, steps) of paths awaiting the endgame

    # the live paths, compacted together as paths end: start index, point,
    # t, the halves at the point (reused by the predictor), step size,
    # accepted steps in a row and step count
    idx = np.zeros(0, int)
    x = np.zeros((0, target.nvars), dtype=complex)
    fg = np.zeros((2, 0, len(target)), dtype=complex)
    t, dt = np.zeros(0), np.zeros(0)
    accepts, steps = np.zeros(0, int), np.zeros(0, int)
    more = True

    while True:
        if more and idx.size < BLOCK_PATHS:
            new = [np.asarray(x0, dtype=complex) for x0 in
                   itertools.islice(starts, BLOCK_PATHS - idx.size)]
            more = len(new) == BLOCK_PATHS - idx.size
            if new:
                X, k = np.array(new), len(new)
                fg_new = h._halves(X)
                for res in _norms(h._combine(fg_new, np.ones(k))):
                    if res > TOL_START:
                        raise ContinuationError(
                            "start point is not on the start system "
                            f"(residual {res:.2e})")
                if record:
                    trajs += [[(1.0, x0.copy())] for x0 in X]
                fresh = (np.arange(len(results), len(results) + k), X, np.ones(k),
                         np.full(k, DT_INIT), np.zeros(k, int), np.zeros(k, int))
                idx, x, t, dt, accepts, steps = (
                    np.concatenate(pair) for pair in
                    zip((idx, x, t, dt, accepts, steps), fresh))
                fg = np.concatenate([fg, fg_new], axis=1)
                results += [None] * k
        if not idx.size:
            break

        step = np.minimum(dt, t - T_CUTOFF)
        t_new = t - step
        dxdt, singular = _solve(h.jacobian_x(x, t), -h._dh_dt(fg))
        # a row whose predictor failed is corrected too, and then rejected
        x_pred = x - step[:, None] * dxdt
        # scale the tolerance with the local value magnitude: far from the
        # origin the residual floor is ~eps * |x|^deg and an absolute
        # threshold below it would stall the path
        corr_tol = NEWTON_TOL * _one_plus_pow(_norms(x_pred), deg_h)
        fg_new = np.empty_like(fg)

        def value(z, rows):
            fg_new[:, rows] = part = h._halves(z)
            return h._combine(part, t_new[rows])

        x_corr, ok = _newton(value, lambda z, rows: h.jacobian_x(z, t_new[rows]),
                             x_pred, corr_tol, MAX_NEWTON)
        ok[singular] = False
        # an accepted row's last residual was taken at its new point
        x = np.where(ok[:, None], x_corr, x)
        fg = np.where(ok[:, None], fg_new, fg)
        t = np.where(ok, t_new, t)
        if record:
            for k, t_k in zip(np.flatnonzero(ok).tolist(), t[ok].tolist()):
                trajs[idx[k]].append((t_k, x[k].copy()))

        steps += 1
        accepts = np.where(ok, accepts + 1, 0)
        grow = accepts >= GROW_AFTER
        accepts[grow] = 0
        dt = np.where(grow, np.minimum(dt * 2.0, DT_MAX),
                      np.where(ok, dt, dt * 0.5))
        diverged = ok & (_norms(x) > DIVERGENCE)
        # a path short of T_CUTOFF ends step_underflow at the step cap or on
        # a rejection below DT_MIN; one past it goes on to the endgame ("")
        keep = ((t > T_CUTOFF) & (steps < MAX_STEPS) & (ok | (dt >= DT_MIN))
                & ~diverged)
        if not keep.all():
            out = ~keep
            status = np.where(diverged[out], "diverged",
                              np.where(t[out] > T_CUTOFF, "step_underflow", ""))
            ended += zip(idx[out].tolist(), x[out], status.tolist(),
                         steps[out].tolist())
            idx, x, fg, t, dt, accepts, steps = (
                idx[keep], x[keep], fg[:, keep], t[keep], dt[keep],
                accepts[keep], steps[keep])
            while len(ended) >= BLOCK_PATHS:
                _finish(target, deg, ended[:BLOCK_PATHS], results, trajs)
                del ended[:BLOCK_PATHS]
    if ended:
        _finish(target, deg, ended, results, trajs)
    return results


def track_path(h: Homotopy, x0, record: bool = False) -> TrackResult:
    """Track one solution of the start system; see track_paths."""
    return track_paths(h, [x0], record)[0]


def _finish(target: PolySystem, deg: int, ended: list, results: list,
            trajs) -> None:
    """Endgame and final residuals of a chunk of ended paths: a Newton
    polish directly on the target system for the paths that reached
    T_CUTOFF, then each path's TrackResult into results.  trajs is None
    unless the trajectories are recorded."""
    ids = [i for i, _, _, _ in ended]
    X = np.array([p for _, p, _, _ in ended])
    status = np.array([s for _, _, s, _ in ended], dtype=object)

    def tol_end(points):
        return TOL_END_REL * _one_plus_pow(_norms(points), deg)

    end = np.flatnonzero(status == "")
    if end.size:
        X[end], _ = _newton_on(target, X[end], 1e-4 * tol_end(X[end]),
                               POLISH_STEPS)
        if trajs is not None:
            for i in end:
                trajs[ids[i]].append((0.0, X[i].copy()))

    residual = np.full(len(X), np.inf)
    finite = np.all(np.isfinite(X), axis=1)
    if finite.any():
        residual[finite] = _norms(target.evaluate(X[finite]))
    far = ~finite | (_norms(X) > DIVERGENCE)
    good = residual <= tol_end(X)
    status[end] = np.where(far[end], "diverged",
                           np.where(good[end], "converged", "step_underflow"))
    max_imag = np.max(np.abs(X.imag), axis=1, initial=0.0)
    for k, (i, _, _, n_steps) in enumerate(ended):
        results[i] = TrackResult(endpoint=X[k].copy(), status=status[k],
                                 residual=float(residual[k]), steps=n_steps,
                                 max_imag=float(max_imag[k]),
                                 trajectory=() if trajs is None else tuple(trajs[i]))


def solve_total_degree(f, seed=None, budget: int | None = None,
                       record: bool = False) -> list:
    """Solve a square system by tracking all product-of-degrees start roots.

    The start system is {x_i^{d_i} = 1}, whose solutions are products of
    roots of unity; gamma is drawn once per solve from the unit circle.
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
    if budget is not None and total > budget:
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
    """(node, axis) pairs that stay variable after pin_moving_frame; the
    first min(d, n) nodes lose their trailing coordinates."""
    out = []
    for i in range(n):
        for k in range(d):
            if i < d and k >= i:
                continue
            out.append((i, k))
    return out


def _require_pinned(p: Configuration) -> None:
    pinned = pin_moving_frame(p)
    if np.max(np.abs(pinned.coords - p.coords)) > 1e-9:
        raise FrameworkError("configuration must be pinned via pin_moving_frame")


def pinned_member_system(sys: MemberConstraintSystem, p: Configuration):
    """Member constraint polynomials of a pinned framework, in the free
    coordinates only.  Returns (PolySystem, free positions, free values)."""
    _require_pinned(p)
    graph = sys.graph
    n, d = graph.n, graph.d
    free = free_coordinate_positions(n, d)
    nvars = len(free)
    index = {pos: v for v, pos in enumerate(free)}

    def coord(i, k):
        v = index.get((i, k))
        if v is None:
            return MultiPoly.constant(nvars, 0.0)  # pinned entries are exact zeros
        return MultiPoly.variable(nvars, v)

    polys = []
    for (i, j, _), rest in zip(graph.members, sys.rest_sq_lengths):
        g = MultiPoly.constant(nvars, -rest)
        for k in range(d):
            diff = coord(i - 1, k) - coord(j - 1, k)
            g = g + diff * diff
        polys.append(g)
    values = np.array([p.coords[i, k] for i, k in free])
    return PolySystem(polys), free, values


def _restore_full(free, x, n, d) -> np.ndarray:
    full = np.zeros((n, d), dtype=complex)
    for (i, k), v in zip(free, x):
        full[i, k] = v
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
    re-anchoring at each accepted endpoint `steps` times; v is the first
    flex at p for direction="flex", else a vector over the free or all n*d
    coordinates.  The rectangular system is squared by a seeded random
    complex matrix; the homotopy is a real parameter homotopy (gamma = 1).
    """
    if not math.isfinite(epsilon):
        raise FrameworkError(f"epsilon must be a finite number, got {epsilon}")
    if steps < 1:
        raise FrameworkError(f"steps must be at least 1, got {steps}")
    members, free, p_free = pinned_member_system(sys, p)
    n, d = sys.graph.n, sys.graph.d
    N = len(free)
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
        if v.size == n * d:
            v = np.array([v[i * d + k] for i, k in free])
        if v.size != N:
            raise FrameworkError(f"direction must have {N} (or {n * d}) entries")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise FrameworkError("zero direction vector")
    v = v / norm

    m = len(members)
    M = (rng.normal(size=(N, m + 1)) + 1j * rng.normal(size=(N, m + 1)))

    vpoly = [MultiPoly.variable(N, i) * v[i] for i in range(N)]
    linear = vpoly[0]
    for term in vpoly[1:]:
        linear = linear + term

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
        start = squared(shift)
        target = squared(shift + epsilon)
        # settle the anchor exactly onto the start system before tracking;
        # after the first push it is complex and only approximately on it
        settled, ok = _newton_on(start, anchor[None], np.array([1e-12]), 10)
        anchor = settled[0]
        if not ok[0]:
            results.append(DeformationStep(
                point=_restore_full(free, anchor, n, d),
                result=TrackResult(endpoint=anchor, status="step_underflow",
                                   residual=float(np.linalg.norm(start.evaluate(anchor))),
                                   steps=0, max_imag=float(np.max(np.abs(anchor.imag)))),
                real=False, member_residual=float("nan")))
            break
        h = Homotopy(target=target, start=start, gamma=1.0)
        res = track_path(h, anchor)
        member_res = float(np.max(np.abs(
            members.evaluate(res.endpoint.real.astype(complex)).real)))
        real = res.max_imag <= TAU_IMAG
        if res.status == "converged" and not real:
            res = replace(res, status="no_real_solution")
        results.append(DeformationStep(
            point=_restore_full(free, res.endpoint, n, d),
            result=res, real=real, member_residual=member_res))
        if res.status in ("diverged", "step_underflow"):
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


def _polish_real(target: PolySystem, x: np.ndarray) -> tuple:
    """Gauss-Newton on a real system, here {members = 0, sphere = 0}."""
    def val(z):
        return target.evaluate(z.astype(complex)).real

    def jac(z):
        return target.jacobian(z.astype(complex)).real

    prev = np.inf
    for _ in range(REAL_POLISH_STEPS):
        r = val(x)
        worst = np.max(np.abs(r))
        if worst <= 1e-12 or worst >= prev:
            break
        prev = worst
        J = jac(x)
        step, *_ = np.linalg.lstsq(J, r, rcond=None)
        if not np.all(np.isfinite(step)):
            break
        x = x - step
    return x, float(np.max(np.abs(val(x))))


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
    if not 0.0 < epsilon < math.inf:
        raise FrameworkError(f"epsilon must be a positive finite number, got {epsilon}")
    members, free, p_free = pinned_member_system(sys, p)
    n, d = sys.graph.n, sys.graph.d
    N = len(free)
    rng = np.random.default_rng(seed)

    sphere = MultiPoly.constant(N, -epsilon ** 2)
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

    real_system = PolySystem(list(members.polys) + [sphere])
    witnesses = []
    seen = set()
    for res in results:
        x_part = res.endpoint[:N]
        if not np.all(np.isfinite(x_part)):
            continue
        if np.max(np.abs(x_part.imag)) > HARVEST_IMAG:
            continue
        polished, residual = _polish_real(real_system, x_part.real.copy())
        if not residual <= 1e-10:  # a NaN residual is no witness
            continue
        key = tuple(np.round(polished, 6))
        if key in seen:
            continue
        seen.add(key)
        witnesses.append(Configuration(_restore_full(free, polished, n, d).real))

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
