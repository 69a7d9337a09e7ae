"""The batch kernels and the scalar reference paths must agree."""

import math

import numpy as np
import pytest

from pentamod import (analytic_in_moduli, analytic_in_moduli_batch, anchor_pentagon,
                      boundary_band_mask, charts, moduli, oracle_in_moduli,
                      oracle_in_moduli_batch, region_of, sphere)
from pentamod.sphere import sample_sphere
from pentamod.errors import InvalidPoints
from pentamod.render import circle_points


@pytest.mark.parametrize("n", [3, 4, 5])
def test_backends_agree_on_random_points(n):
    # the scalar oracle is the independent reference for both batch predicates;
    # membership may differ from it only inside the 1e-6 boundary band
    pts = sample_sphere(200, 300 + n)
    scalar = np.array([oracle_in_moduli(n, p) for p in pts])
    assert np.array_equal(oracle_in_moduli_batch(n, pts), scalar)
    keep = ~boundary_band_mask(n, pts, 1e-6)
    assert np.array_equal(analytic_in_moduli_batch(n, pts)[keep], scalar[keep])


def test_backends_agree_on_boundary_points():
    # points sitting exactly on arcs and vertices take the special branches
    for n in (3, 4, 5):
        geo = charts.geometry(n)
        pts = np.vstack([
            sphere.minor_arc(geo.A, geo.B).point_at(0.5),
            sphere.minor_arc(geo.M, geo.B_prime).point_at(0.5),
            sphere.minor_arc(geo.B, geo.A_prime).point_at(0.3),
            geo.M, geo.C, -geo.A, -geo.B,
        ])
        expect = [True, False, True, False, False, False, False]
        assert list(analytic_in_moduli_batch(n, pts)) == expect
        assert [analytic_in_moduli(n, p) for p in pts] == expect
        assert list(oracle_in_moduli_batch(n, pts)) == [oracle_in_moduli(n, p) for p in pts]
        # points on every division circle, away from the vertices, check each
        # circle's inclusion rule against the scalar oracle
        div = moduli.division(n)
        ring = np.vstack([circle_points(nrm, 33)[:-1] for nrm in div.normals])
        verts = np.array(list(div.vertices.values()))
        ring = ring[np.linalg.norm(ring[:, None] - verts[None], axis=2).min(axis=1) > 1e-6]
        scalar = np.array([oracle_in_moduli(n, p) for p in ring])
        assert np.array_equal(analytic_in_moduli_batch(n, ring), scalar)
        assert np.array_equal(oracle_in_moduli_batch(n, ring), scalar)


def _oracle_mix(n, seed):
    """Uniform anchors, anchors on every division circle, anchors 1e-12 to
    1e-6 rad off those circles and off every division vertex, and anchors
    within the chord of A or B."""
    rng = np.random.default_rng(seed)
    geo = charts.geometry(n)
    div = moduli.division(n)
    on, off = [], []
    for nrm in div.normals:
        ring = circle_points(nrm, 17)[:-1]
        on.append(ring)
        for delta in (1e-12, 1e-9, 1e-6):
            side = rng.choice((-1.0, 1.0), size=(len(ring), 1))
            off.append(math.cos(delta) * ring + side * math.sin(delta) * nrm)
    for v in div.vertices.values():
        t = np.cross(v, rng.normal(size=(8, 3)))
        t /= np.linalg.norm(t, axis=1)[:, None]
        for delta in (1e-12, 1e-9, 1e-6):
            off.append(math.cos(delta) * v + math.sin(delta) * t)
    near_ab = []
    for c in (geo.A, geo.B):
        t = np.cross(c, rng.normal(size=3))
        t /= np.linalg.norm(t)
        near_ab += [c] + [math.cos(d) * c + math.sin(d) * t for d in (1e-12, 4e-10)]
    pts = np.vstack([sample_sphere(60, seed)] + on + off + [np.array(near_ab)])
    return pts / np.linalg.norm(pts, axis=1)[:, None]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_oracle_rows_are_independent(n):
    # each row's answer must not depend on which other rows share its batch:
    # the batch oracle drops rows as pairs rule them out
    pts = _oracle_mix(n, 40 + n)
    whole = oracle_in_moduli_batch(n, pts)
    rng = np.random.default_rng(n)
    for _ in range(4):
        perm = rng.permutation(len(pts))
        cuts = np.sort(rng.choice(np.arange(1, len(pts)), size=3, replace=False))
        parts = [oracle_in_moduli_batch(n, pts[idx]) for idx in np.split(perm, cuts)]
        assert np.array_equal(np.concatenate(parts), whole[perm])
    # known defect (ROADMAP.md, item 4): 1e-9 rad off a locus the scalar
    # oracle finds endpoint-degenerate touches that the batch oracle misses,
    # here c1-b2 at two anchors near the vertex M (n = 3) and c2-b1 at one
    # anchor off a circle (n = 4)
    scalar = np.array([oracle_in_moduli(n, p) for p in pts])
    assert np.count_nonzero(whole != scalar) == {3: 2, 4: 1, 5: 0}[n]


@pytest.mark.xfail(strict=True, reason="batch and scalar oracle differ at this anchor "
                                       "(ROADMAP.md, item 4)")
def test_oracles_agree_at_known_defect():
    V = np.array([0.5755406512314724, -9.999999038521016e-10, -0.8177731707387157])
    assert oracle_in_moduli_batch(3, V[None])[0] == oracle_in_moduli(3, V)


def _band_mask(n, pts):
    return boundary_band_mask(n, pts, 1e-6)


_BATCH = {"membership_batch": analytic_in_moduli_batch, "oracle_batch": oracle_in_moduli_batch,
          "band_mask": _band_mask}
_SCALAR = {"membership": analytic_in_moduli, "oracle": oracle_in_moduli,
           "region_of": region_of, "anchor_pentagon": anchor_pentagon}
# rows that are not finite unit vectors; a batch carries one beside a good row
_GOOD = np.array([0.6, 0.0, 0.8])
_NOT_UNIT = {"nan": np.array([np.nan, 0.0, 1.0]), "inf": np.array([np.inf, 0.0, 0.0]),
             "scaled": 1.001 * _GOOD}
_MALFORMED = (
    [pytest.param(f, np.array([1.0, 0.0, 0.0]), id=k) for k, f in _BATCH.items()]
    + [pytest.param(f, np.eye(3)[:2], id=k) for k, f in _SCALAR.items()]
    + [pytest.param(f, np.vstack([_GOOD, row]), id=f"{k}-{r}")
       for k, f in _BATCH.items() for r, row in _NOT_UNIT.items()]
    + [pytest.param(f, row, id=f"{k}-{r}")
       for k, f in _SCALAR.items() for r, row in _NOT_UNIT.items()]
)


@pytest.mark.parametrize("predicate, bad", _MALFORMED)
def test_predicates_reject_malformed_shapes(predicate, bad):
    with pytest.raises(InvalidPoints):
        predicate(3, bad)


def test_sample_sphere_deterministic_and_uniformish():
    a = sample_sphere(1000, 5)
    b = sample_sphere(1000, 5)
    assert np.array_equal(a, b)
    assert np.allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)
    assert abs(a[:, 2].mean()) < 0.1
    with pytest.raises(ValueError):
        sample_sphere(0, 1)
