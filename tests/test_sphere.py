import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pentamod import sphere
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


@pytest.mark.parametrize("size", [1, 3, 4, 1000, 16384])
def test_sample_sphere_rows_equal_slice_of_whole_draw(size, monkeypatch):
    samples, seed = 40_003, 11
    whole = _whole_draw(samples, seed)
    for start in (0, 1, 2, 3, 5, 4097, 20_001, samples - size):
        stop = min(start + size, samples)
        rows = sphere._sample_rows(samples, seed, start, stop)
        assert rows.tobytes() == whole[start:stop].tobytes(), (start, stop)
        # under a height cap, the rows of the slice at most that high, some
        # slices keeping none
        for top in (0.3, -0.77, -1.0):
            piece = whole[start:stop]
            rows = sphere._sample_rows(samples, seed, start, stop, top)
            assert rows.tobytes() == piece[piece[:, 2] <= top].tobytes(), (start, stop, top)
    # the pieces map_sample streams, put together, give the whole draw, and
    # under a cap its rows at most that high
    monkeypatch.setattr(sphere, "_CHUNK", max(size, 997))
    pieces = sphere.map_sample(samples, seed, lambda pts: pts)
    assert max(len(p) for p in pieces) <= sphere._CHUNK
    assert np.vstack(pieces).tobytes() == sphere.sample_sphere(samples, seed).tobytes()
    pieces = sphere.map_sample(samples, seed, lambda pts: pts, -0.5)
    assert np.vstack(pieces).tobytes() == whole[whole[:, 2] <= -0.5].tobytes()


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
