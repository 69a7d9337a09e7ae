"""Sphere sampler and the batch simplicity oracle.

sample_sphere draws the uniform points behind Monte Carlo areas and
`verify`.  oracle_batch is the vectorized form of pentagon.is_simple: it
builds every anchor's pentagon arcs at once and tests the 15 arc pairs
across the whole batch.  Batch membership lives in moduli.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .charts import geometry

_TINY = 1e-300


def sample_sphere(samples: int, seed: int) -> np.ndarray:
    """Uniform points on the sphere, deterministic given (seed, samples).

    Uses the counter-based Philox generator, so chunked generation with
    explicit counter advances would reproduce the same stream.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    g = np.random.Generator(np.random.Philox(seed))
    z = g.uniform(-1.0, 1.0, samples)
    az = g.uniform(0.0, 2.0 * math.pi, samples)
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([s * np.cos(az), s * np.sin(az), z])


@lru_cache(maxsize=None)
def _oracle_constants(n: int):
    """Fixed pentagon vertices A, B, C and the rotations taking V to W and E."""
    geo = geometry(n)
    return (geo.A, geo.B, geo.C,
            geo.chart_rotation("A", -2.0 * math.pi / 3.0),
            geo.chart_rotation("B", 2.0 * math.pi / n))


def _rowdot(a, b):
    return np.einsum("ij,ij->i", a, b)


def oracle_batch(n: int, pts: np.ndarray, tol: float) -> np.ndarray:
    """Simplicity of the pentagon anchored at each row of an (N, 3) array."""
    A, B, C, RA, RB = _oracle_constants(n)
    N = pts.shape[0]
    chord = 2.0 * math.sin(0.5 * tol)
    slack_chord = 2.0 * math.sin(0.5 * max(tol, 1e-7))
    V = pts
    P = [V, np.broadcast_to(A, (N, 3)), V @ RA.T,
         np.broadcast_to(C, (N, 3)), V @ RB.T, np.broadcast_to(B, (N, 3))]
    valid = (np.linalg.norm(V - A, axis=1) > chord) & (np.linalg.norm(V - B, axis=1) > chord)
    U, NH, E2, L = [], [], [], []
    for a in range(6):
        u, v = P[a], P[(a + 1) % 6]
        cr = np.cross(u, v)
        cn = np.linalg.norm(cr, axis=1)
        valid &= (cn > 1e-12) & (np.linalg.norm(u + v, axis=1) > 1e-9)
        nh = cr / np.maximum(cn, _TINY)[:, None]
        U.append(u)
        NH.append(nh)
        E2.append(np.cross(nh, u))
        L.append(np.arctan2(cn, _rowdot(u, v)))
    simple = valid.copy()
    for i in range(6):
        for j in range(i + 1, 6):
            adj = j if j == i + 1 else (0 if (i == 0 and j == 5) else -1)
            m = np.cross(NH[i], NH[j])
            nm = np.linalg.norm(m, axis=1)
            cop = valid & (nm < tol)
            tr = valid & ~cop & simple
            if tr.any():
                mh = m / np.maximum(nm, _TINY)[:, None]
                for sgn in (1.0, -1.0):
                    cand = sgn * mh
                    ai = np.arctan2(_rowdot(cand, E2[i]), _rowdot(cand, U[i]))
                    aj = np.arctan2(_rowdot(cand, E2[j]), _rowdot(cand, U[j]))
                    hit = tr & (ai >= -tol) & (ai <= L[i] + tol) & (aj >= -tol) & (aj <= L[j] + tol)
                    if adj >= 0:
                        hit &= np.linalg.norm(cand - P[adj], axis=1) > slack_chord
                    simple &= ~hit
            if cop.any():
                rows = np.flatnonzero(cop & simple)
                for r in rows:
                    a0 = math.atan2(float(U[j][r] @ E2[i][r]), float(U[j][r] @ U[i][r]))
                    pj = P[(j + 1) % 6][r]
                    a1 = math.atan2(float(pj @ E2[i][r]), float(pj @ U[i][r]))
                    lo, hi = min(a0, a1), max(a0, a1)
                    if hi - lo > math.pi:
                        lo, hi = hi, lo + 2.0 * math.pi
                    ova = min(float(L[i][r]), hi) - max(0.0, lo)
                    ovb = min(float(L[i][r]), hi - 2.0 * math.pi) - max(0.0, lo - 2.0 * math.pi)
                    if max(ova, ovb) > tol:
                        simple[r] = False
    return simple
