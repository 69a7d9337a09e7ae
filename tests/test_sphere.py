import math
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentamod import moduli, sphere
from pentamod.errors import AntipodalEndpoints, DegenerateArc

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def random_units(rng, k):
    v = rng.normal(size=(k, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_angular_distance_basic():
    assert sphere.angular_distance(EZ, EZ) == 0.0
    assert sphere.angular_distance(EX, -EX) == pytest.approx(math.pi, abs=1e-15)
    assert sphere.angular_distance(EX, EY) == pytest.approx(math.pi / 2, abs=1e-15)


def test_angular_distance_near_poles_stable():
    # acos would lose digits here; atan2 must not
    u = sphere.unit([1.0, 1e-9, 0.0])
    assert sphere.angular_distance(EX, u) == pytest.approx(1e-9, rel=1e-6)
    assert sphere.angular_distance(-EX, u) == pytest.approx(math.pi - 1e-9, abs=1e-14)


def test_minor_arc_basic():
    a = sphere.minor_arc(EX, EY)
    assert np.allclose(a.normal, EZ, atol=1e-15)
    assert a.length == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.raises(AntipodalEndpoints):
        sphere.minor_arc(EX, -EX)
    with pytest.raises(DegenerateArc):
        sphere.minor_arc(EX, EX)


def test_minor_arc_length_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(100):
        u, v = random_units(rng, 2)
        if np.linalg.norm(u + v) < 1e-6:
            continue
        assert abs(sphere.minor_arc(u, v).length - sphere.minor_arc(v, u).length) < 1e-12


def test_point_on_arc_midpoint_and_antipode():
    a = sphere.minor_arc(EX, EY)
    mid = a.point_at(0.5)
    assert sphere.point_on_arc(mid, a)
    assert not sphere.point_on_arc(-mid, a)


def test_arc_intersect_shared_endpoint():
    a = sphere.minor_arc(EX, EY)
    b = sphere.minor_arc(EZ, EY)
    res = sphere.arc_intersect(a, b)
    assert not res.overlap
    assert len(res.points) == 1
    assert np.allclose(res.points[0], EY, atol=1e-12)


def test_arc_intersect_coplanar_overlap():
    p30 = sphere.unit([math.cos(0.5), math.sin(0.5), 0.0])
    p80 = sphere.unit([math.cos(1.4), math.sin(1.4), 0.0])
    a = sphere.minor_arc(EX, p80)
    b = sphere.minor_arc(p30, EY)
    res = sphere.arc_intersect(a, b)
    assert res.overlap
    assert len(res.shared) == 2
    ang = sphere.angular_distance(res.shared[0], res.shared[1])
    assert ang == pytest.approx(0.9, abs=1e-12)   # [0.5, 1.4] along the equator


def test_arc_intersect_coplanar_disjoint():
    a = sphere.minor_arc(EX, sphere.unit([math.cos(0.3), math.sin(0.3), 0.0]))
    b = sphere.minor_arc(sphere.unit([math.cos(1.0), math.sin(1.0), 0.0]), EY)
    res = sphere.arc_intersect(a, b)
    assert res.overlap
    assert res.shared == () and res.points == ()


def test_arc_intersect_symmetric_and_on_both():
    rng = np.random.default_rng(17)
    found = 0
    for _ in range(300):
        u, v, s, t = random_units(rng, 4)
        try:
            a = sphere.minor_arc(u, v)
            b = sphere.minor_arc(s, t)
        except (AntipodalEndpoints, DegenerateArc):
            continue
        r1 = sphere.arc_intersect(a, b)
        r2 = sphere.arc_intersect(b, a)
        assert len(r1.points) == len(r2.points)
        for p in r1.points:
            found += 1
            assert sphere.point_on_arc(p, a) and sphere.point_on_arc(p, b)
            assert min(np.linalg.norm(p - q) for q in r2.points) < 1e-10
    assert found > 20   # the sample must actually exercise intersections


# unit-scale, tiny (products underflow to subnormals or zero), subnormal and
# huge (products overflow to inf, differences to nan) components, of either
# sign, mixed freely within one vector
_COMPONENT = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e-160, 1e-160),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(-1e300, 1e300),
)
_VECTOR = st.lists(_COMPONENT, min_size=3, max_size=3).map(np.array)


@given(_VECTOR, _VECTOR)
def test_cross3_is_np_cross_bit_for_bit(a, b):
    with np.errstate(all="ignore"):
        want = np.cross(a, b)
    assert sphere.cross3(a, b).tobytes() == want.tobytes()


@given(_VECTOR)
def test_norm3_is_np_linalg_norm_bit_for_bit(a):
    with np.errstate(all="ignore"):
        want, got = np.linalg.norm(a), sphere.norm3(a)
    assert np.float64(got).tobytes() == want.tobytes()


def test_cross3_and_norm3_match_numpy_on_generic_vectors():
    # hypothesis favours short, exactly representable values whose sums
    # round alike in any order; generic doubles tell the summation orders
    # apart (about one vector in five for a plain left-to-right sum)
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4000, 3)) * 10.0 ** rng.integers(-150, 150, size=(4000, 1))
    b = rng.normal(size=(4000, 3))
    assert all(sphere.cross3(x, y).tobytes() == np.cross(x, y).tobytes() for x, y in zip(a, b))
    assert all(np.float64(sphere.norm3(x)).tobytes() == np.linalg.norm(x).tobytes() for x in a)
    # minor_arcs takes its dot products from np.vecdot: each row rounds as
    # ndarray.dot, and so its square root as norm3
    for x, y in ((a, b), (a, a), (b, b)):
        assert np.vecdot(x, y).tobytes() == np.array([u.dot(v) for u, v in zip(x, y)]).tobytes()
    assert np.sqrt(np.vecdot(a, a)).tobytes() == np.array([sphere.norm3(x) for x in a]).tobytes()


def _whole_draw(samples, seed):
    # the sampler as one generator drawing all z values, then all azimuths
    g = np.random.Generator(np.random.Philox(seed))
    z = g.uniform(-1.0, 1.0, samples)
    az = g.uniform(0.0, 2.0 * math.pi, samples)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


def test_sample_sphere_whole_range_is_one_stream():
    for samples, seed in ((1, 0), (7, 3), (20_001, 42)):
        assert sphere.sample_sphere(samples, seed).tobytes() == _whole_draw(samples, seed).tobytes()


def _azimuth_words(samples, seed):
    """The raw Philox words of the whole draw's azimuths, draws samples ..
    2 samples - 1: Generator.uniform scales word w to ((w >> 11) 2^-53) 2 pi."""
    bits = np.random.Philox(seed).advance(samples // 4)
    bits.random_raw(samples % 4)
    return bits.random_raw(samples)


def _split(pts, words, caps):
    """(over, under): the rows of pts above the outer cap of their sector,
    the top byte of their azimuth word, and those under its inner cap and
    off the south pole."""
    inner, outer = caps
    sector = (words >> np.uint64(56)).astype(np.intp)
    z = pts[:, 2]
    return z > outer[sector], (z < inner[sector]) & (z > -1.0 + sphere.POLE_GAP)


def _test_caps():
    """Sector tables that drop every row, keep every row, count every row
    off the pole, the real caps, a random table, and ones that keep sector
    0 or sector 255 alone."""
    rng = np.random.default_rng(5)
    lo = rng.uniform(-1.0, 0.5, sphere.SECTORS)
    one = np.zeros(sphere.SECTORS, bool)
    drop, keep = np.full(sphere.SECTORS, -np.inf), np.full(sphere.SECTORS, np.inf)
    tables = {"drop": (drop, drop), "keep": sphere.NO_CAPS, "under": (keep, keep),
              "random": (lo, lo + rng.uniform(0.0, 0.5, sphere.SECTORS))}
    for s in (0, sphere.SECTORS - 1):
        only = one.copy()
        only[s] = True
        tables[f"sector {s}"] = (drop, np.where(only, 1.0, -1.5))
    for n in (3, 4, 5):
        tables[f"caps {n}"] = moduli.sector_caps(n)
    return tables


@pytest.mark.parametrize("size", [1, 3, 4, 1000, 16384])
def test_sample_sphere_rows_equal_slice_of_whole_draw(size, monkeypatch):
    samples, seed = 40_003, 11
    whole = _whole_draw(samples, seed)
    words = _azimuth_words(samples, seed)
    tables = _test_caps()
    # the slices cover both edge sectors under every table
    sector = words >> np.uint64(56)
    assert (sector == 0).any() and (sector == 255).any()
    for start in (0, 1, 2, 3, 5, 4097, 20_001, samples - size):
        stop = min(start + size, samples)
        under, rows = sphere._sample_rows(samples, seed, start, stop,
                                          sphere._m_bounds(sphere.NO_CAPS))
        assert under == 0 and rows.tobytes() == whole[start:stop].tobytes(), (start, stop)
        # between sector caps, the rows of the slice between them, some
        # slices keeping none, and the count of those under them
        for name, caps in tables.items():
            piece = whole[start:stop]
            over, below = _split(piece, words[start:stop], caps)
            under, rows = sphere._sample_rows(samples, seed, start, stop, sphere._m_bounds(caps))
            assert rows.tobytes() == piece[~over & ~below].tobytes(), (start, stop, name)
            assert under == np.count_nonzero(below), (start, stop, name)
    # the pieces map_sample streams, put together, give the whole draw, and
    # between caps its rows between them
    monkeypatch.setattr(sphere, "_CHUNK", max(size, 997))
    pieces = sphere.map_sample(samples, seed, lambda pts: pts)
    assert max(len(p) for _, p in pieces) <= sphere._CHUNK
    assert {u for u, _ in pieces} == {0}
    assert np.vstack([p for _, p in pieces]).tobytes() == sphere.sample_sphere(samples, seed).tobytes()
    for name in ("random", "caps 4", "sector 255"):
        over, below = _split(whole, words, tables[name])
        pieces = sphere.map_sample(samples, seed, lambda pts: pts, tables[name])
        assert np.vstack([p for _, p in pieces]).tobytes() == whole[~over & ~below].tobytes()
        assert sum(u for u, _ in pieces) == np.count_nonzero(below), name


def test_map_sample_rejects_malformed_caps():
    # caps of the wrong length, or with a NaN, which every comparison would
    # silently fail, are refused before any row is drawn
    keep = sphere.NO_CAPS[1]
    for caps in ((keep[:-1], keep), (keep, np.append(keep, 1.0)), (keep, keep.reshape(16, 16)),
                 (np.where(np.arange(sphere.SECTORS) == 7, np.nan, -1.0), keep)):
        with pytest.raises(ValueError):
            sphere.map_sample(100, 1, len, caps)


def test_sample_rows_sort_edge_words_into_their_sectors(monkeypatch):
    # crafted words: azimuths at both ends of every fifth sector and within
    # ulps of 2 pi, heights at and beside the pole gap and two caps that
    # lie on the grid of z, -0.5 and 0.25, then words of the stream.  Each
    # row goes to the band, the count or neither by the caps of its
    # azimuth word's top byte, and a band row is the one Generator.uniform's
    # scaling of its words gives, bit for bit
    samples, seed, start = 5000, 3, 7
    ends = [(s << 56) + d for s in range(0, 256, 5) for d in (0, 1, 2 ** 11, 2 ** 56 - 1)]
    top = [2 ** 64 - 1 - d for d in (0, 1, 2 ** 11 - 1, 2 ** 11, 2 ** 12, 2 ** 20)]
    azimuth = np.array((ends + top) * 4, dtype=np.uint64)
    pole = sphere._M_POLE
    grid = [m << 11 | low for m in (0, 1, pole - 1, pole, pole + 1, 2 ** 51 - 1, 2 ** 51,
                                    2 ** 51 + 1, 5 * 2 ** 50 - 1, 5 * 2 ** 50, 5 * 2 ** 50 + 1)
            for low in (0, 2 ** 11 - 1)]
    height = np.array(grid * 40, dtype=np.uint64)[:len(azimuth)]
    height[1::3] = np.random.Philox(1).random_raw(len(height[1::3]))

    def fake(bits, fresh, draw, count):
        if draw < samples:
            return height[draw - start:][:count].copy()
        return azimuth[draw - samples - start:][:count].copy()

    monkeypatch.setattr(sphere, "_draws", fake)
    u = lambda w: (w >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    z = -1.0 + (1.0 - -1.0) * u(height)
    az = 0.0 + (2.0 * math.pi - 0.0) * u(azimuth)
    assert 2.0 * math.pi - 2e-15 < az.max() < 2.0 * math.pi
    assert (z == -1.0).any() and (z == -0.5).any() and (z == 0.25).any()
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    want = np.column_stack([s * np.cos(az), s * np.sin(az), z])
    on_grid = (np.full(sphere.SECTORS, -0.5), np.full(sphere.SECTORS, 0.25))
    for name, caps in {**_test_caps(), "grid": on_grid}.items():
        over, below = _split(want, azimuth, caps)
        under, rows = sphere._sample_rows(samples, seed, start, start + len(azimuth),
                                          sphere._m_bounds(caps))
        assert rows.tobytes() == want[~over & ~below].tobytes(), name
        assert under == np.count_nonzero(below), name
    # the pole gap holds rows back from the count
    over, below = _split(want, azimuth, (np.full(sphere.SECTORS, np.inf), sphere.NO_CAPS[1]))
    assert 0 < np.count_nonzero(~below) < len(z) and (z[~below] <= -1.0 + sphere.POLE_GAP).all()


def test_scratch_frames_never_hand_out_live_memory():
    rows = sphere._SCRATCH_ROWS
    with sphere.scratch(rows) as s:
        a, b = s.empty((rows, 3)), s.out(rows, np.intp)
        assert a.flags.c_contiguous and b.dtype == np.intp and not np.shares_memory(a, b)
        with sphere.scratch(rows) as t:
            c = t.empty(rows)
            assert not (np.shares_memory(c, a) or np.shares_memory(c, b))
            # the inner frame would hand out the outer frame's next array again
            with pytest.raises(RuntimeError):
                s.empty(rows)
        d = s.empty(rows)
        assert np.shares_memory(d, c) and not (np.shares_memory(d, a) or np.shares_memory(d, b))
        # a request past the end of the buffer maps a larger one; the arrays
        # already taken keep the old one
        a[...] = 1.5
        big = s.empty(sphere._THREAD_SCRATCH.buf.size + 1, np.uint8)
        assert (a == 1.5).all() and not np.shares_memory(big, a)
    # below _SCRATCH_ROWS and above _CHUNK rows a frame takes from no buffer
    for rows in (1, sphere._SCRATCH_ROWS - 1, sphere._CHUNK + 1):
        with sphere.scratch(rows) as s:
            e, f = s.empty((rows, 3)), s.empty((rows, 3))
            assert s.out(rows) is None and not np.shares_memory(e, f)


@pytest.mark.parametrize("first", ["large", "small"])
def test_scratch_size_follows_only_the_peak(first):
    # two request orders that reach one peak leave one buffer size: the
    # least power of two that holds the peak
    def run():
        sizes = {"large": (3000, 3), "small": 1000}
        order = [first, "small" if first == "large" else "large"]
        with sphere.scratch(sphere._CHUNK) as s:
            for name in order:
                s.empty(sizes[name])
            peak = sphere._THREAD_SCRATCH.top
        return peak, sphere._THREAD_SCRATCH.buf.size

    out = []
    t = threading.Thread(target=lambda: out.append(run()))
    t.start()
    t.join(timeout=60)
    peak, size = out[0]
    assert peak == 8 * (9000 + 1000) and size == 1 << 17
