"""Bounded polyhedral regions and the geometric primitives the integrators need.

A region is an H-polytope {x : A x <= b}. Construction verifies boundedness
by solving 2n linear programs (one per axis direction); the same LP kernel
supplies interior points and the bounding box used for rejection sampling.
`box_pass` is the one loop over uniform box proposals: the volume estimate
and rejection-regime integration both go through it. It streams the
proposals in cache-sized chunks, each drawn, tested and handed on before the
next is drawn, and splits a long pass into one span of chunks per usable
core, each drawing exactly the bits the serial pass would.
"""

from __future__ import annotations

import copy
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import RngStream, as_stream

PIVOT_TOL = 1e-9
BARRIER_GRAD_TOL = 1e-8
BARRIER_MAX_ITER = 200

# coordinates per box_pass chunk: a chunk's draws and hits stay in L2
_CHUNK_ELEMENTS = 1 << 15
# proposals per box_pass span: a shorter span would not repay its thread
_SPAN_MIN = 4096


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


# box_pass spans at most, one per core this process may run on
_WORKERS = _usable_cores()


class GeometryError(Exception):
    """Base class for geometric failures."""


class DimensionMismatchError(GeometryError):
    pass


class LPInfeasibleError(GeometryError):
    """The linear inequality system has no solution."""


class LPUnboundedError(GeometryError):
    """The LP objective is unbounded over the feasible set."""


class UnboundedPolytopeError(GeometryError):
    """The inequality system does not describe a bounded polytope."""


class EmptyInteriorError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# Dense tableau simplex with Bland's rule
# ---------------------------------------------------------------------------

def _pivot(T: np.ndarray, basis: list, row: int, col: int) -> None:
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _run_simplex(T: np.ndarray, basis: list, ncols: int, tol: float = PIVOT_TOL) -> None:
    """Minimize the objective row in place. Bland's rule avoids cycling."""
    m = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[m, j] < -tol:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = np.inf
        for i in range(m):
            a = T[i, enter]
            if a > tol:
                ratio = T[i, -1] / a
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15 and (leave < 0 or basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise LPUnboundedError("objective unbounded over the feasible set")
        _pivot(T, basis, leave, enter)


def _lp_min(c: np.ndarray, A: np.ndarray, b: np.ndarray, tol: float = PIVOT_TOL):
    """Minimize c.x subject to A x <= b with x free. Returns (x, value).

    Free variables are split x = u - v with u, v >= 0; feasibility is
    established by a phase-1 auxiliary problem with artificial variables.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    ncols = 2 * n + m

    M = np.hstack([A, -A, np.eye(m)])
    rhs = b.copy()
    neg = rhs < 0
    M[neg] *= -1.0
    rhs[neg] *= -1.0
    art_rows = np.where(neg)[0]
    nart = len(art_rows)
    if nart:
        art = np.zeros((m, nart))
        for j, i in enumerate(art_rows):
            art[i, j] = 1.0
        M = np.hstack([M, art])

    T = np.zeros((m + 1, M.shape[1] + 1))
    T[:m, :-1] = M
    T[:m, -1] = rhs
    basis = []
    art_iter = iter(range(ncols, ncols + nart))
    for i in range(m):
        basis.append(next(art_iter) if neg[i] else 2 * n + i)

    if nart:
        T[m, ncols:ncols + nart] = 1.0
        for i in art_rows:
            T[m] -= T[i]
        _run_simplex(T, basis, ncols + nart, tol)
        if -T[m, -1] > 1e-7:
            raise LPInfeasibleError("inequality system is infeasible")
        # drive remaining artificials out of the basis, dropping redundant rows
        keep_rows = []
        for i in range(m):
            if basis[i] >= ncols:
                piv = -1
                for j in range(ncols):
                    if abs(T[i, j]) > tol:
                        piv = j
                        break
                if piv >= 0:
                    _pivot(T, basis, i, piv)
                    keep_rows.append(i)
                # else: redundant row, drop it
            else:
                keep_rows.append(i)
        rows = keep_rows + [m]
        T = T[np.ix_(rows, list(range(ncols)) + [M.shape[1]])]
        basis = [basis[i] for i in keep_rows]

    mrow = T.shape[0] - 1
    c2 = np.concatenate([c, -c, np.zeros(m)])
    T[mrow, :-1] = c2
    T[mrow, -1] = 0.0
    for i, j in enumerate(basis):
        if c2[j] != 0.0:
            T[mrow] -= c2[j] * T[i]
    _run_simplex(T, basis, ncols, tol)

    xfull = np.zeros(ncols)
    for i, j in enumerate(basis):
        xfull[j] = T[i, -1]
    x = xfull[:n] - xfull[n:2 * n]
    return x, float(c @ x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box [lower, upper], the tight enclosure of a polytope."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds must be equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GeometryError("box bounds must be finite")
        if np.any(lo > hi):
            raise GeometryError("box lower bound exceeds upper bound")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != self.lower.shape:
            raise DimensionMismatchError("point dimension does not match box")
        return bool(np.all(p >= self.lower) and np.all(p <= self.upper))


class HPolytope:
    """Bounded region {x : A x <= b} with named coordinates.

    Unbounded or infeasible systems are rejected at construction: the
    `bounding_box` is computed via 2n LP solves and must succeed in every
    direction. `box_rows` lists the rows the bounding box does not imply;
    they are the only ones a box proposal is tested against.
    """

    def __init__(self, constraint_matrix, bounds, attribute_names: Sequence[str] | None = None):
        A = np.atleast_2d(np.asarray(constraint_matrix, dtype=float))
        b = np.asarray(bounds, dtype=float).ravel()
        if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
            raise GeometryError("constraint matrix must be m x n with m, n >= 1")
        if b.shape[0] != A.shape[0]:
            raise DimensionMismatchError("bounds length must equal constraint count")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise GeometryError("constraints must be finite")
        if np.any(np.max(np.abs(A), axis=1) == 0.0):
            raise GeometryError("every constraint row needs at least one nonzero entry")
        n = A.shape[1]
        if attribute_names is None:
            attribute_names = tuple(f"x{i + 1}" for i in range(n))
        names = tuple(str(s) for s in attribute_names)
        if len(names) != n:
            raise DimensionMismatchError("attribute name count must equal dimension")
        if len(set(names)) != n:
            raise GeometryError("attribute names must be unique")

        A.flags.writeable = False
        b.flags.writeable = False
        self.constraint_matrix = A
        self.bounds = b
        self.attribute_names = names
        self.bounding_box = box = self._compute_bounding_box()
        # Row j holds on the whole box when its maximum there,
        # sum_i max(a_ji * lower_i, a_ji * upper_i), is at most b_j; box
        # proposals are tested against the other rows only.
        row_max = np.maximum(A * box.lower, A * box.upper).sum(axis=1)
        rows = np.flatnonzero(row_max > b)
        rows.flags.writeable = False
        self.box_rows = rows
        self._box_A = A[rows]
        self._box_b = b[rows]

    @property
    def dim(self) -> int:
        return self.constraint_matrix.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.constraint_matrix.shape[0]

    def _compute_bounding_box(self) -> Box:
        n = self.dim
        lower = np.empty(n)
        upper = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            try:
                xlo, vlo = _lp_min(e, self.constraint_matrix, self.bounds)
                xhi, vhi = _lp_min(-e, self.constraint_matrix, self.bounds)
            except LPUnboundedError as exc:
                raise UnboundedPolytopeError(
                    f"polytope is unbounded along attribute '{self.attribute_names[i]}'"
                ) from exc
            lower[i] = vlo
            upper[i] = -vhi
        # guard against pivot-level noise inverting degenerate axes,
        # and canonicalize signed zeros (-0.0 upsets downstream samplers)
        flip = lower > upper
        lower[flip], upper[flip] = upper[flip], lower[flip]
        return Box(lower + 0.0, upper + 0.0)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        if p.shape != (self.dim,):
            raise DimensionMismatchError(
                f"point has dimension {p.shape}, polytope has {self.dim}"
            )
        return bool(np.all(self.constraint_matrix @ p <= self.bounds))

    def contains_all(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership mask for a (k, n) array of points."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise DimensionMismatchError("points must be a (k, n) array")
        return np.all(pts @ self.constraint_matrix.T <= self.bounds, axis=1)

    def contains_box_points(self, points: np.ndarray) -> np.ndarray:
        """Membership mask for a (k, n) array of points inside the bounding box.

        Only the rows in `box_rows` are tested, since the box implies the
        rest; for arbitrary points use `contains_all`.
        """
        return np.all(points @ self._box_A.T <= self._box_b, axis=1)

    def structural_key(self):
        """Hashable identity used to deduplicate structurally equal regions."""
        return (
            tuple(map(tuple, self.constraint_matrix)),
            tuple(self.bounds),
            self.attribute_names,
        )

    def __repr__(self):
        return f"HPolytope(m={self.num_constraints}, attrs={self.attribute_names})"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def solve_lp(objective, poly: HPolytope, sense: str = "min"):
    """Optimize a linear objective over the polytope.

    Returns (optimal_point, optimal_value); raises LPUnboundedError when the
    objective is unbounded (a normal signal for the boundedness check).
    """
    c = np.asarray(objective, dtype=float)
    if c.shape != (poly.dim,):
        raise DimensionMismatchError("objective dimension does not match polytope")
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    if sense == "max":
        x, v = _lp_min(-c, poly.constraint_matrix, poly.bounds)
        return x, -v
    return _lp_min(c, poly.constraint_matrix, poly.bounds)


def _chebyshev_center(A: np.ndarray, b: np.ndarray):
    norms = np.linalg.norm(A, axis=1)
    A_ext = np.hstack([A, norms[:, None]])
    c = np.zeros(A.shape[1] + 1)
    c[-1] = -1.0  # maximize the inscribed radius
    x, _ = _lp_min(c, A_ext, b)
    return x[:-1], x[-1]


def analytic_center(poly: HPolytope) -> np.ndarray:
    """Minimizer of the log-barrier -sum_j log(b_j - a_j.x), by damped Newton."""
    A = poly.constraint_matrix
    b = poly.bounds
    x, radius = _chebyshev_center(A, b)
    if radius <= 1e-10:
        raise EmptyInteriorError("polytope has empty interior")
    for _ in range(BARRIER_MAX_ITER):
        s = b - A @ x
        g = A.T @ (1.0 / s)
        if np.linalg.norm(g) <= BARRIER_GRAD_TOL:
            return x
        W = A / s[:, None]
        H = W.T @ W
        try:
            d = -np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            d = -np.linalg.lstsq(H, g, rcond=None)[0]
        f0 = -np.sum(np.log(s))
        gd = float(g @ d)
        t = 1.0
        xn = x
        while t > 1e-14:
            cand = x + t * d
            sn = b - A @ cand
            if np.all(sn > 0) and -np.sum(np.log(sn)) <= f0 + 0.25 * t * gd:
                xn = cand
                break
            t *= 0.5
        else:
            raise GeometryError("analytic center line search stalled")
        x = xn
    raise GeometryError("analytic center did not converge")


def box_pass(poly: HPolytope, k: int, rng: "int | RngStream",
             evaluate: "Callable[[np.ndarray], np.ndarray] | None" = None):
    """Stream k uniform bounding-box proposals through the membership test.

    The proposals come from rng.substream(0) in chunks of
    _CHUNK_ELEMENTS // n rows, so that a chunk's draws, hits and density
    temporaries stay in cache. Each chunk is drawn into a reused buffer
    (the same bits as one gen.uniform(lower, upper) call for all k),
    scaled in place and compressed to its hits; only the rows in
    `poly.box_rows` are tested. When `evaluate` is given, it is called on
    each chunk's hits, an (h, n) array in draw order that may be a view of
    the reused buffer, so `evaluate` must copy what it keeps.

    The k proposals are split into min(_WORKERS, ceil(k / _SPAN_MIN))
    contiguous spans, one per usable core. Span j draws from a copy of the
    substream's PCG64 state advanced past the first_j * n draws of the
    spans before it, so every span draws exactly the bits the serial pass
    would. Spans after the first run on short-lived threads while the
    caller runs the first; an exception raised in any span is re-raised
    here. The hit counts and values are joined in draw order, so when
    `evaluate` computes each row independently of the rest of its batch,
    as every profile density does, the result is bit-identical for any
    number of spans. A pass of at most _SPAN_MIN proposals starts no
    thread.

    Returns (hits, values): the number of proposals inside the polytope,
    and the per-chunk results of `evaluate` concatenated in draw order, or
    None without `evaluate`. A box of zero volume draws nothing, reports no
    hits and evaluates an empty (0, n) array.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    box = poly.bounding_box
    n = poly.dim
    if box.volume == 0.0:
        # measure-zero region: no box sample can land strictly inside
        return 0, (None if evaluate is None else evaluate(np.empty((0, n))))
    test_rows = poly.box_rows.size > 0
    spans = min(_WORKERS, -(-k // _SPAN_MIN))
    first = [j * k // spans for j in range(spans + 1)]
    gen = as_stream(rng).substream(0).generator()
    gens = [gen]
    for j in range(1, spans):
        bits = copy.copy(gen.bit_generator)
        bits.advance(first[j] * n)  # each double consumes one 64-bit draw
        gens.append(np.random.Generator(bits))
    rows = min(max(_CHUNK_ELEMENTS // n, 1), -(-k // spans))
    # the width and lower corner repeated once per row, so that scaling a
    # chunk is two contiguous passes (broadcasting a length-n row would
    # loop over the rows)
    width = np.tile(box.upper - box.lower, rows)
    lower = np.tile(box.lower, rows)

    def run(j):
        buf = np.empty(rows * n)
        values = []
        hits = 0
        for done in range(first[j], first[j + 1], rows):
            c = min(rows, first[j + 1] - done)
            flat = buf[:c * n]
            gens[j].random(out=flat)
            flat *= width[:c * n]
            flat += lower[:c * n]
            pts = flat.reshape(c, n)
            if test_rows:
                pts = pts.compress(poly.contains_box_points(pts), axis=0)
            hits += pts.shape[0]
            if evaluate is not None:
                values.append(evaluate(pts))
        return hits, values

    results = [None] * spans

    def run_caught(j):
        try:
            results[j] = run(j)
        except BaseException as exc:  # handed to the caller, which raises it
            results[j] = exc

    started = []
    try:
        for j in range(1, spans):
            t = threading.Thread(target=run_caught, args=(j,))
            t.start()
            started.append(t)
        results[0] = run(0)
    finally:
        for t in started:
            t.join()
    for r in results:
        if isinstance(r, BaseException):
            raise r
    hits = sum(h for h, _ in results)
    if evaluate is None:
        return hits, None
    values = [v for _, span_values in results for v in span_values]
    return hits, (values[0] if len(values) == 1 else np.concatenate(values))


def volume_from_hits(box_volume: float, hits: int, k: int):
    """(volume, std_error) from `hits` of k uniform box proposals: Vol(box) *
    hits/k with the binomial-proportion standard error scaled to match."""
    p = hits / k
    return float(box_volume * p), float(box_volume * np.sqrt(p * (1.0 - p) / k))


def estimate_volume(poly: HPolytope, k: int, rng_seed: "int | RngStream"):
    """Rejection volume estimate from one `box_pass` of k proposals.

    Returns (volume, std_error): volume = Vol(box) * hits/k, std_error the
    binomial-proportion standard error scaled by the box volume. A box
    keeps no rows to test, so it gets (Vol(box), 0.0) exactly.
    """
    hits, _ = box_pass(poly, k, rng_seed)
    return volume_from_hits(poly.bounding_box.volume, hits, k)
