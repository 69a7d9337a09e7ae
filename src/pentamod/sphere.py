"""Floating-point spherical primitives: unit vectors, minor arcs (one by
minor_arc, or the arcs along a path of points as stacks by minor_arcs),
input validation (as_point/as_points), rows_matmul, whose rows never depend
on their batch, the uniform sampler sample_sphere and map_sample, which
streams that sample, or its rows between two height caps per azimuth
sector, through a function in bounded pieces, map_rows, which runs a batch
kernel on a long input in bounded pieces, and scratch, the one per-thread
buffer the batch kernels write their large temporaries into.

Points on the sphere are plain numpy arrays of shape (3,), kept unit length.
All angles are radians.  Distances are computed with atan2 of cross-norm and
dot, never acos, so they stay accurate near 0 and pi.

The scalar geometry takes its cross products and lengths from cross3 and
norm3 rather than np.cross and np.linalg.norm, whose argument and axis
handling cost over ten times the arithmetic on one 3-vector.  Both round
exactly like numpy.  cross3 forms the same six products and three
differences as np.cross, in the same order, on Python floats: each is one
IEEE double operation, so every component has the same bits.  norm3 is
sqrt(a.dot(a)), which is what np.linalg.norm runs on a 1-D float array
(ravel, x.dot(x), sqrt); the sum stays on numpy's dot, since BLAS may fuse
it in an order plain float arithmetic would not reproduce.

minor_arcs builds several arcs in one pass of numpy calls, with the
bits of cross3 and norm3: its cross products are three ufuncs on column
views of the points laid out x y z x y, which form the products and
differences of cross3, and its sums of products come from np.vecdot, which
rounds each row like ndarray.dot, so like norm3 and u @ v (a tier-1 test
pins both on generic vectors).  minor_arc is its one-arc case, so one arc
rule remains.  A GreatArc computes its tangent normal x u on first use, for
point_on_arc and arc_intersect.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AntipodalEndpoints, DegenerateArc, InvalidPoints

# Angular tolerance of the incidence predicates and region_of.
# Closed-form constants leave ~1e-12 of double noise; 1e-9 gives three
# decades of margin.
DEFAULT_TOL = 1e-9

# p is on the great circle with unit normal c when |p.c|, the sine of its
# angle to the circle, is at most this (1e-15 for the dot's rounding).
ON_CIRCLE = math.sin(DEFAULT_TOL) + 1e-15

# |u + v| below this means antipodal endpoints.
ANTIPODAL_EPS = 1e-9

# Angular separation below this means coincident endpoints.
DEGENERATE_EPS = 1e-12

# |p.p - 1| above this rejects a point as off the unit sphere (or non-finite).
UNIT_NORM_EPS = 1e-9

# Smallest neighbourhood of a vertex that counts as the vertex itself: a
# point within VERTEX_SLACK, chord VERTEX_CHORD, of it is at the vertex, so
# a touch found within DEFAULT_TOL of a vertex is not reported twice.
VERTEX_SLACK = 1e-7
VERTEX_CHORD = 2.0 * math.sin(0.5 * VERTEX_SLACK)

# The azimuth sectors of map_sample's height caps: a row's sector is the top
# byte of the Philox word its azimuth is scaled from, so sector s holds the
# azimuths in [2 pi s / SECTORS, 2 pi (s + 1) / SECTORS], to their rounding.
SECTORS = 256

# Every sector meets at the poles, so a row within this height of the south
# pole is never counted under a cap: it stays in the band.
POLE_GAP = 1e-12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# The caps that decide no row: none under, none over.
NO_CAPS = (_frozen(np.full(SECTORS, -np.inf)), _frozen(np.full(SECTORS, np.inf)))


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two float arrays of shape (3,), bit-identical to np.cross."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def norm3(a: np.ndarray) -> float:
    """|a| of a float array of shape (3,), bit-identical to np.linalg.norm."""
    return math.sqrt(a.dot(a))


def rows_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for a float array a of rows, each row rounded as in any batch:
    numpy runs a one-row product through BLAS gemv or dot, which round apart
    from the gemm or gemv of two or more rows, so it doubles a lone row.
    Written into out, a C-contiguous array, when a has two or more rows."""
    return (a.repeat(2, 0) @ b)[:1] if len(a) == 1 else np.matmul(a, b, out=out)


def unit(v) -> np.ndarray:
    """Normalize a 3-vector to unit length."""
    v = np.asarray(v, dtype=float)
    return v / norm3(v)


def as_point(p) -> np.ndarray:
    """p as a contiguous float array of shape (3,); InvalidPoints for any
    other shape and for a non-finite or non-unit vector.

    The test of as_points, with the same operations in the same order, on
    Python floats: a one-row numpy pass costs several times the arithmetic.
    """
    a = np.ascontiguousarray(p, dtype=float)
    if a.shape != (3,):
        raise InvalidPoints(f"expected one point of shape (3,), got shape {a.shape}")
    x, y, z = a.tolist()
    # written so that NaN and inf fail the comparison
    if not abs(x * x + y * y + z * z - 1.0) <= UNIT_NORM_EPS:
        raise InvalidPoints(f"point must be a finite unit vector, |p.p - 1| <= {UNIT_NORM_EPS}")
    return a


def as_points(pts) -> np.ndarray:
    """pts as a contiguous float array of shape (N, 3); InvalidPoints for any
    other shape and for any non-finite or non-unit row."""
    return _unit_rows(_point_rows(pts))


def _point_rows(pts) -> np.ndarray:
    """pts as a contiguous float array of shape (N, 3); InvalidPoints for any
    other shape."""
    a = np.ascontiguousarray(pts, dtype=float)
    if a.ndim != 2 or a.shape[1] != 3:
        raise InvalidPoints(f"expected points of shape (N, 3), got shape {a.shape}")
    return a


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """a, an (N, 3) float array; InvalidPoints for any non-finite or
    non-unit row.

    The test of as_point, column by column: x x + y y + z z added left to
    right, so a point and its row round alike (an einsum row-dot rounds
    apart on some rows).
    """
    x, y, z = a.T
    d = x * x
    d += y * y
    d += z * z
    d -= 1.0
    # written so that NaN and inf fail the comparison
    if not (np.abs(d, out=d) <= UNIT_NORM_EPS).all():
        raise InvalidPoints(f"points must be finite unit vectors, |p.p - 1| <= {UNIT_NORM_EPS}")
    return a


def map_rows(fn, pts) -> np.ndarray:
    """fn of the points pts, validated as by as_points, in row order: a batch
    kernel over any number of rows with memory bounded by _CHUNK rows.

    An input of more than _CHUNK rows goes through fn in ceil(N / _CHUNK)
    near-equal pieces, one after another in the calling thread, each piece
    validated just before fn takes it, and the answers are concatenated;
    fn's rows must not depend on their batch, which rows_matmul ensures for
    the batch kernels.
    """
    pts = _point_rows(pts)
    if len(pts) <= _CHUNK:
        return fn(_unit_rows(pts))
    cuts = _cuts(len(pts))
    return np.concatenate([fn(_unit_rows(pts[a:b])) for a, b in zip(cuts, cuts[1:])])


def _cuts(rows: int) -> list[int]:
    """The bounds of the ceil(rows / _CHUNK) near-equal row ranges that
    map_rows and map_sample cut more than _CHUNK rows into."""
    pieces = -(-rows // _CHUNK)
    return [rows * k // pieces for k in range(pieces + 1)]


# rows per piece of map_sample and map_rows, picked by timing 2^12 .. 2^16
# on 2 cores: smaller pieces pay more per-call overhead, larger ones push
# their (rows, n + 2) temporaries out of cache
_CHUNK = 1 << 14

# a frame for fewer rows leaves its arrays to numpy: their blocks are too
# small to make glibc trim, and a one-point call skips the bookkeeping
_SCRATCH_ROWS = 256


class _ThreadScratch(threading.local):
    """The calling thread's scratch: one byte buffer, in use below top, and
    the number of frames open on it."""

    def __init__(self):
        self.buf = np.empty(0, np.uint8)
        self.top = 0
        self.frames = 0


_THREAD_SCRATCH = _ThreadScratch()


class Scratch:
    """One frame on the calling thread's scratch, for the large temporaries
    of the batch kernels; see scratch()."""

    __slots__ = ("_base", "_depth")

    def __enter__(self) -> "Scratch":
        t = _THREAD_SCRATCH
        self._base = t.top
        t.frames += 1
        self._depth = t.frames
        return self

    def __exit__(self, *exc) -> None:
        t = _THREAD_SCRATCH
        t.top = self._base
        t.frames -= 1

    def empty(self, shape, dtype=float) -> np.ndarray:
        t = _THREAD_SCRATCH
        if t.frames != self._depth:
            # the inner frame would hand this memory out again
            raise RuntimeError("scratch frame used while an inner frame is open")
        start = t.top
        try:
            a = np.ndarray(shape, dtype, t.buf, start)
        except TypeError:   # past the end of the buffer
            # an anonymous mapping of its own, outside glibc's heap, so that
            # neither it nor its release moves glibc's trim and mmap
            # thresholds; the arrays taken so far keep the old one mapped
            # until they go.  Its size is the least power of two that holds
            # the request, at least twice the old one, so the size a thread
            # ends with is set by its deepest stack of requests alone, not
            # by their order
            import mmap
            count = shape if isinstance(shape, int) else math.prod(shape)
            need = start + -(-np.dtype(dtype).itemsize * count // 64) * 64
            size = max(1 << (need - 1).bit_length(), 2 * t.buf.size)
            t.buf = np.frombuffer(mmap.mmap(-1, size), np.uint8)
            a = np.ndarray(shape, dtype, t.buf, start)
        t.top = start + -(-a.nbytes // 64) * 64   # each array on its own cache lines
        return a

    out = empty


class _Fresh:
    """The frame of every kernel on fewer than _SCRATCH_ROWS or more than
    _CHUNK rows: it takes from no buffer, so one serves all."""

    __slots__ = ()

    empty = staticmethod(np.empty)

    @staticmethod
    def out(shape, dtype=float) -> None:
        """None, so that the numpy call given it as out= allocates."""
        return None

    def __enter__(self) -> "_Fresh":
        return self

    def __exit__(self, *exc) -> None:
        pass


_FRESH = _Fresh()


def scratch(rows: int) -> Scratch | _Fresh:
    """A frame on the calling thread's scratch for a kernel on `rows` rows.

    `with scratch(rows) as s:` then s.empty(shape, dtype=float) gives an
    uninitialised C-contiguous array, as np.empty does, that no live array
    shares memory with, and s.out(shape, dtype=float) gives one to pass as
    a numpy call's out=, or None where the frame takes from no buffer, so
    that numpy allocates the result as it would without out= (on a few rows
    each np.empty costs more than the arithmetic); a kernel uses the call's
    return value either way.

    On leaving the block every array the frame gave out is dead: its memory
    goes back to the thread's buffer, so none may escape the block.  Frames
    nest: an inner frame takes from above what its callers hold, and a
    helper that returns arrays to its caller takes them from the caller's
    frame; a frame may give out no array while an inner one is open
    (RuntimeError).  The buffer grows to the deepest stack of frames the
    thread has needed and stays, so a thread that runs piece after piece
    reuses the same pages instead of handing freed temporaries back to the
    kernel and faulting them in again.  Each thread has its own buffer, so
    threads never share one.  A frame for fewer than _SCRATCH_ROWS rows, or
    for more than _CHUNK, the most rows a piece of map_sample or map_rows
    holds, takes no buffer (its empty is np.empty), so the buffer stays
    bounded by what frames of _CHUNK rows need.
    """
    return Scratch() if _SCRATCH_ROWS <= rows <= _CHUNK else _FRESH


def _draws(bits: np.random.Philox, fresh: dict, draw: int, count: int) -> np.ndarray:
    """Draws draw .. draw + count - 1 of the Philox stream whose state at
    the start is fresh, as raw 64-bit words, through bits.  Each counter
    step gives four words, so the stream is advanced by whole steps and the
    remainder discarded."""
    bits.state = fresh
    bits.advance(draw // 4)
    bits.random_raw(draw % 4)
    return bits.random_raw(count)


# A draw's word w gives Generator.random's u = (w >> 11) 2^-53, so the
# sampler's z = 2 u - 1 = m 2^-52 - 1 for m = w >> 11, exactly (m < 2^53),
# and its azimuth (w >> 11) 2^-53 2 pi, the two roundings of
# Generator.uniform(-1, 1) and Generator.uniform(0, 2 pi).  z < c, z <= c
# and z > c are thus m < ceil(2^52 c) + 2^52, m < floor(2^52 c) + 2^52 + 1
# and m >= floor(2^52 c) + 2^52 + 1: every float here is an integer below
# 2^53, or clipped to [0, 2^53], so exact.
_M_ONE = 2.0 ** 52


def _m_bounds(caps: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(under, keep), two uint64 arrays of SECTORS bounds on m: a row of
    sector s lies under inner[s] when m < under[s], and not above outer[s]
    when m < keep[s]."""
    inner, outer = (np.clip(np.asarray(c, dtype=float), -2.0, 2.0) * _M_ONE for c in caps)
    if inner.shape != (SECTORS,) or outer.shape != (SECTORS,) or np.isnan([inner, outer]).any():
        raise ValueError(f"caps must be two arrays of {SECTORS} heights, none NaN")
    bounds = np.clip([np.ceil(inner) + _M_ONE, np.floor(outer) + _M_ONE + 1.0], 0.0, 2.0 * _M_ONE)
    return tuple(bounds.astype(np.uint64))


# z > -1 + POLE_GAP for m at least this
_M_POLE = int(math.floor((-1.0 + POLE_GAP) * _M_ONE) + _M_ONE + 1.0)


def _sample_rows(samples: int, seed: int, start: int, stop: int,
                 bounds: tuple[np.ndarray, np.ndarray]) -> tuple[int, np.ndarray]:
    """The rows of start .. stop - 1 of sample_sphere(samples, seed) between
    height caps, in row order and bit for bit, and how many rows lie under
    them; bounds = _m_bounds(caps).

    One Philox(seed) stream holds all z values, uniform in [-1, 1] so the
    points spread uniformly by area, then all azimuths.  Row i takes draws i
    and samples + i, which the counter-based generator jumps straight to,
    each a raw word (see _M_ONE).  For caps = (inner, outer), each a float
    array of SECTORS heights, a row whose azimuth word has the top byte s
    (see SECTORS) and whose z is above outer[s] is dropped, one with z below
    inner[s] and above -1 + POLE_GAP is counted under, both decided from the
    z word alone, and the rest, the band, are scaled to z and azimuth and
    get their square root, cosine and sine, which act row by row, so a band
    row has the bits it has in the whole sample.  Under NO_CAPS every row is
    in the band.
    """
    k = stop - start
    bits = np.random.Philox(seed)
    fresh = bits.state
    with scratch(k) as s:
        m = _draws(bits, fresh, start, k)
        np.right_shift(m, 11, out=m)
        words = _draws(bits, fresh, samples + start, k)
        sector = np.right_shift(words, 56, out=s.out(k, np.uint64)).view(np.int64)
        lim = s.empty(k, np.uint64)
        under = np.less(m, bounds[0].take(sector, 0, lim, "clip"), out=s.empty(k, bool))
        under &= np.greater_equal(m, _M_POLE, out=s.empty(k, bool))
        band = np.less(m, bounds[1].take(sector, 0, lim, "clip"), out=s.empty(k, bool))
        np.greater(band, under, out=band)     # band and not under
        idx = band.nonzero()[0]
        k = idx.size
        z = np.multiply(m.take(idx, 0, s.out(k, np.uint64), "clip"), 1.0 / _M_ONE, out=s.out(k))
        z -= 1.0
        az = np.right_shift(words.take(idx, 0, s.out(k, np.uint64), "clip"), 11,
                            out=s.out(k, np.uint64))
        az = np.multiply(az, 0.5 / _M_ONE, out=s.out(k))
        az *= 2.0 * math.pi
        rows = np.empty((k, 3))
        # sqrt(max(0, 1 - z z)), in place
        t = np.multiply(z, z, out=s.out(k))
        np.subtract(1.0, t, out=t)
        np.maximum(0.0, t, out=t)
        np.sqrt(t, out=t)
        np.multiply(t, np.cos(az, out=s.out(k)), out=rows[:, 0])
        np.multiply(t, np.sin(az, out=az), out=rows[:, 1])
        rows[:, 2] = z
        return int(np.count_nonzero(under)), rows


def sample_sphere(samples: int, seed: int) -> np.ndarray:
    """`samples` uniform points on the sphere, deterministic given (seed, samples)."""
    _check_samples(samples)
    return _sample_rows(samples, seed, 0, samples, _m_bounds(NO_CAPS))[1]


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValueError("samples must be >= 1")


def _cores() -> int:
    """The cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_sample(samples: int, seed: int, fn,
               caps: tuple[np.ndarray, np.ndarray] = NO_CAPS) -> list[tuple[int, object]]:
    """(under, fn(band)) of each piece of sample_sphere(samples, seed), in
    row order: band holds the piece's rows between the caps and under counts
    its rows under them (see _sample_rows).

    The pieces are ceil(samples / _CHUNK) near-equal row ranges, each drawn
    on its own, so memory stays bounded.  A caller whose fn answers the
    same on every row above outer[s], and another answer on every row under
    inner[s] (away from the south pole, where every sector meets), passes
    those heights as caps: every row is drawn, to keep the stream's place,
    the rows outside the band are decided from their z and their sector
    before any scaling or trigonometry, and fn sees each band row with its
    bits in the whole sample and never sees the others.  Under NO_CAPS fn
    sees every row and under is 0.  One zero-row call of fn fills its
    caches, then a thread pool of one worker per available core, at most
    one per piece, maps them.  A one-piece call runs inline on the whole
    sample.
    """
    _check_samples(samples)
    bounds = _m_bounds(caps)

    def piece(start: int, stop: int) -> tuple[int, object]:
        under, rows = _sample_rows(samples, seed, start, stop, bounds)
        return under, fn(rows)

    if samples <= _CHUNK:
        return [piece(0, samples)]
    cuts = _cuts(samples)
    from concurrent.futures import ThreadPoolExecutor
    fn(np.empty((0, 3)))
    with ThreadPoolExecutor(max_workers=min(_cores(), len(cuts) - 1)) as pool:
        return list(pool.map(piece, cuts, cuts[1:]))


def angular_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Spherical distance between two unit vectors, in [0, pi]."""
    return math.atan2(norm3(cross3(u, v)), float(u @ v))


@dataclass(frozen=True)
class GreatArc:
    """Minor geodesic arc from u to v, with the unit normal of its great circle.

    The normal is oriented along u x v, and length is the angular extent,
    always in (0, pi).
    """

    u: np.ndarray
    v: np.ndarray
    normal: np.ndarray = field(repr=False)
    length: float

    def point_at(self, t: float) -> np.ndarray:
        """Point at fraction t in [0, 1] along the arc (slerp)."""
        s = math.sin(self.length)
        w = (math.sin((1.0 - t) * self.length) * self.u + math.sin(t * self.length) * self.v) / s
        return unit(w)

    @cached_property
    def tangent(self) -> np.ndarray:
        """normal x u: the unit tangent of the circle at u, pointing along
        the arc."""
        return cross3(self.normal, self.u)


def minor_arcs(path: np.ndarray) -> tuple[np.ndarray, tuple[float, ...]]:
    """The minor arcs from each row of a (k + 1, 3) float array of unit
    vectors to the next, as stacks: their unit normals, (k, 3), and their
    lengths, each in (0, pi).

    Raises AntipodalEndpoints or DegenerateArc for the first arc, in path
    order, whose ends are antipodal or coincide, antipodal tested first.
    The arc from u to v has the bits of the 3-vector forms: normal c /
    norm3(c) and length atan2(norm3(c), u @ v) for c = cross3(u, v), and
    antipodal ends where norm3(u + v) <= ANTIPODAL_EPS.  The column views of
    the rows laid out x y z x y form the products and differences of cross3,
    and np.vecdot rounds like ndarray.dot, so like norm3 and u @ v.
    """
    u, v = path[:-1], path[1:]
    xyzxy = np.concatenate((path, path[:, :2]), axis=1)
    a, b = xyzxy[:-1], xyzxy[1:]
    c = a[:, 1:4] * b[:, 2:5]
    c -= a[:, 2:5] * b[:, 1:4]
    chord = np.sqrt(np.vecdot(c, c))
    s = u + v
    ends = np.sqrt(np.vecdot(s, s)).tolist()
    # angular_distance(u, v), sharing the cross product with the normal
    lengths = tuple(map(math.atan2, chord.tolist(), np.vecdot(u, v).tolist()))
    for end, length in zip(ends, lengths):
        if end <= ANTIPODAL_EPS:
            raise AntipodalEndpoints("arc endpoints are antipodal")
        if length < DEGENERATE_EPS:
            raise DegenerateArc("arc endpoints coincide")
    return c / chord[:, None], lengths


def minor_arc(u: np.ndarray, v: np.ndarray) -> GreatArc:
    """Minor arc between two non-antipodal, non-coincident unit vectors: the
    one-arc path of minor_arcs."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    normals, (length,) = minor_arcs(np.array([u, v]))
    return GreatArc(u=u, v=v, normal=normals[0], length=length)


def point_on_arc(p: np.ndarray, s: GreatArc) -> bool:
    """True iff p lies on the supporting circle and within the arc's span.

    Both the distance to the circle and the angular overshoot past the
    endpoints are compared against DEFAULT_TOL.
    """
    if abs(float(p @ s.normal)) > ON_CIRCLE:
        return False
    ang = math.atan2(float(p @ s.tangent), float(p @ s.u))
    return -DEFAULT_TOL <= ang <= s.length + DEFAULT_TOL


def _circle_interval(ref: GreatArc, other: GreatArc) -> tuple[float, float]:
    """Angular interval of `other` measured along `ref`'s circle frame."""
    e2 = ref.tangent
    a0 = math.atan2(float(other.u @ e2), float(other.u @ ref.u))
    a1 = math.atan2(float(other.v @ e2), float(other.v @ ref.u))
    lo, hi = min(a0, a1), max(a0, a1)
    if hi - lo > math.pi:  # interval wraps through the branch cut
        lo, hi = hi, lo + 2.0 * math.pi
    return lo, hi


@dataclass(frozen=True)
class ArcIntersection:
    """Result of intersecting two arcs.

    points holds the transversal intersection points (possibly empty).  When
    the supporting circles coincide, overlap is True and shared holds the
    endpoints of the common sub-arc (empty tuple when the arcs merely touch
    or are disjoint on the circle).
    """

    points: tuple
    overlap: bool
    shared: tuple = ()


def arc_intersect(s: GreatArc, t: GreatArc) -> ArcIntersection:
    """Intersect two minor arcs, to within DEFAULT_TOL.

    Transversal case: candidates are +-(normal_s x normal_t) normalized,
    filtered by on-arc tests on both inputs.  Coplanar case: reported via the
    overlap flag together with the shared sub-arc endpoints.
    """
    m = cross3(s.normal, t.normal)
    nm = norm3(m)
    if nm < DEFAULT_TOL:
        lo, hi = _circle_interval(s, t)
        a, b = max(0.0, lo), min(s.length, hi)
        # retry with a 2*pi shift in case t's interval sits across the cut
        a2, b2 = max(0.0, lo - 2.0 * math.pi), min(s.length, hi - 2.0 * math.pi)
        if b2 - a2 > b - a:
            a, b = a2, b2
        e2 = s.tangent
        if b - a > DEFAULT_TOL:
            p0 = unit(math.cos(a) * s.u + math.sin(a) * e2)
            p1 = unit(math.cos(b) * s.u + math.sin(b) * e2)
            return ArcIntersection(points=(), overlap=True, shared=(p0, p1))
        if b - a > -DEFAULT_TOL:
            p0 = unit(math.cos(0.5 * (a + b)) * s.u + math.sin(0.5 * (a + b)) * e2)
            return ArcIntersection(points=(p0,), overlap=True, shared=())
        return ArcIntersection(points=(), overlap=True, shared=())
    m = m / nm
    pts = []
    for cand in (m, -m):
        if point_on_arc(cand, s) and point_on_arc(cand, t):
            pts.append(cand)
    return ArcIntersection(points=tuple(pts), overlap=False)
