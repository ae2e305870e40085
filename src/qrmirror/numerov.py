"""Wavefunction-domain reflection oracle: Numerov integration of

    psi''(z) + (p(z)/hbar)^2 psi(z) = 0

with an incoming-wave boundary condition near the surface.  This is an
independent cross-check of the coupled-amplitude solver: same potential
table, entirely different formulation and integrator.

The complex wavefunction is seeded with the toward-surface WKB wave at the
near end (full absorption leaves no outgoing wave there), marched outward
on piecewise-uniform grids whose step doubles as the local de Broglie
wavelength grows (up to sixteen 400-point chunks at a time, each block one
banded unit lower-triangular solve by LAPACK's dtbtrs, with the Numerov
factor f taken straight from V), and projected onto the WKB basis at the
far end.  Only |r| is convention-free and compared against the amplitude
solver.  On the perfect conductor at 30 cm a cold march solves 209,679
rows in 33 blocks.

Near the surface |V| dwarfs the free-fall energies.  Where E < 2^-54 |V|,
E is below half an ulp of |V|, so E - V rounds to -V and every wavevector,
step, Numerov factor and doubling decision is the one of E = 0: the march
up to there is the same at every such energy (below z of about 3e-3 a0 at
30 cm on the perfect conductor, 84% of its wavelengths).  So a call records
its state after each block while its E stays below 2^-54 times the least
|V| read so far (the seed's reads, each block's V and each chunk-end V),
and a later call on the same table, z_start and points per wavelength
resumes from the farthest recorded state whose bound lies above its E and
whose last node lies below its z_end (so every recorded chunk was full for
its window too).  The resumed march is the cold one bit for bit.  States
are kept per table in a weak mapping and are small (a seed of two rows
each); a longer record is published by one assignment, so threads sharing
a table never see a torn one (two threads extending it at once may lose
one extension, which costs only the work of recording it again).
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import CONSTANTS
from .potential import PotentialTable
from .reflection import _check_energy

_M = CONSTANTS.mass_au
_GL16_X, _GL16_W = leggauss(16)
_POINTS_PER_WAVELENGTH = 100   # Numerov points per local de Broglie wavelength
# chunks per banded solve: each block pays about 50 us of fixed numpy work
# for its ~6,400 rows, and its arrays set the march's memory (a tracemalloc
# peak of about 0.8 MB for the cold 30 cm march on the perfect conductor)
_BLOCK_CHUNKS = 16
# E below 2^-54 |V| leaves E - V = -V; a table reads V < 0 (0 on the null
# table), so the least |V| read is minus the largest V
_ZERO_ENERGY = 2.0 ** -54
# table -> {(z_start, _POINTS_PER_WAVELENGTH): tuple of _MarchState}
_MARCHES = weakref.WeakKeyDictionary()


@dataclass
class NumerovResult:
    r_magnitude: float
    z_end: float
    n_points: int


class _MarchState(NamedTuple):
    """A zero-energy march between two blocks: the last node, the step and
    the two seed rows of the next block, the points so far, and 2^-54 times
    the least |V| read up to here."""
    z_last: float
    h: float
    seed: np.ndarray
    total_points: int
    bound: float


def _phase_between(table: PotentialTable, energy_au: float,
                   z1: float, z2: float) -> tuple[float, float]:
    """Integral of p(z) over [z1, z2] by 16-point Gauss-Legendre, and the
    largest V it read."""
    half = 0.5 * (z2 - z1)
    mid = 0.5 * (z2 + z1)
    z = mid + half * _GL16_X
    v = table.potential(z)
    p = np.sqrt(2.0 * _M * (energy_au - v))
    return float(half * np.sum(_GL16_W * p)), float(v.max())


def numerov_reflection(table: PotentialTable, energy_au: float,
                       z_start: float, z_end: float) -> NumerovResult:
    """|r| from Numerov integration between the given WKB-exact endpoints."""
    try:
        from scipy.linalg.lapack import dtbtrs   # the only user of scipy
    except ImportError as exc:
        raise ImportError("numerov_reflection needs scipy, in the 'test' "
                          "extra: pip install 'qrmirror[test]'") from exc

    _check_energy(energy_au)
    if not table.z_min <= z_start < z_end <= table.z_max:
        raise ValueError("integration window outside the table")

    two_m = 2.0 * _M

    def wavevector(z):
        return math.sqrt(two_m * (energy_au - table.derivatives_scalar(z)[0]))

    ppw = float(_POINTS_PER_WAVELENGTH)
    v0 = table.derivatives_scalar(z_start)[0]
    k0 = math.sqrt(two_m * (energy_au - v0))
    h = 2.0 * math.pi / (k0 * ppw)
    if z_start + h >= z_end:
        raise ValueError("integration window shorter than one step")

    # resume from the farthest recorded state this energy and window allow;
    # bounds fall and z_last rises along the states, so those form a prefix
    key = (z_start, _POINTS_PER_WAVELENGTH)
    states = _MARCHES.get(table, {}).get(key, ())
    n = 0
    while (n < len(states) and energy_au < states[n].bound
           and states[n].z_last < z_end):
        n += 1
    if n:
        z_last, h, seed, total_points, bound = states[n - 1]
    else:
        # WKB seed for the incoming wave at the two leading points, (Re, Im)
        v2 = table.derivatives_scalar(z_start + h)[0]
        k2 = math.sqrt(two_m * (energy_au - v2))
        phi12, v_top = _phase_between(table, energy_au, z_start, z_start + h)
        psi2 = (1.0 / math.sqrt(k2)) * cmath.exp(-1j * phi12)
        seed = [[1.0 / math.sqrt(k0), 0.0], [psi2.real, psi2.imag]]
        z_last = z_start + h
        total_points = 2
        bound = -_ZERO_ENERGY * max(v0, v2, v_top)
    # only a call that starts from the farthest state extends the record
    recording = n == len(states) and energy_au < bound
    recorded = []
    pending = None
    psi_tail = None
    z_tail = None

    # piecewise-uniform grid in chunks of one step h, which doubles at a
    # chunk end when the local wavelength allows; a chunk after a doubling
    # starts from two points a spacing h_new = 2 h_old apart (indices -3
    # and -1 of the chunk before).  A chunk may run up to two steps past
    # z_end but never past the table: the march ends within one step of
    # z_max when the window reaches it.  _BLOCK_CHUNKS chunks form a block,
    # fewer when a chunk shorter than the rest or the end of the march cuts
    # it, each chunk with its own step, and each block's march
    #     f2 psi_n+1 - (12 - 10 f1) psi_n + f0 psi_n-1 = 0
    # is one banded forward substitution; f is real, so Re psi and Im psi
    # are two right-hand sides of the same system.  While E stays below the
    # bound, the state after a block of full chunks other than the last is
    # recorded once the next block has begun.
    full = int(max(64, 4 * ppw))
    offsets = np.arange(-1.0, full + 1)
    z_max = table.z_max
    done = False
    while not done:
        bases, steps, counts, v_ends = [], [], [], []
        z = z_last
        for _ in range(_BLOCK_CHUNKS):
            n_max = int(min(full, math.ceil((z_end - z) / h) + 1,
                            (z_max - z) // h))
            if n_max < 1:
                done = True
                break
            bases.append(z)
            steps.append(h)
            counts.append(n_max)
            z = z + h * n_max
            if z >= z_end:
                done = True
                break
            v_ends.append(table.derivatives_scalar(z)[0])
            k = math.sqrt(two_m * (energy_au - v_ends[-1]))
            if 2.0 * math.pi / (k * h) >= 2.0 * ppw:
                h *= 2.0
            if n_max < full:    # a short chunk ends its block
                break
        if not counts:
            break
        if pending is not None:
            recorded.append(pending)
            pending = None
        # chunk i has nodes base_i + h_i j, j = -1 .. counts_i, from index
        # p_i = i width; only a block's last chunk can be short, so the rows
        # of one outer sum, cut after the last node, hold every chunk's nodes
        width = counts[0] + 2
        last = width * (len(counts) - 1)
        p = np.arange(0, last + 1, width)
        hs = np.array(steps)
        z_nodes = hs[:, None] * offsets[:width]
        z_nodes += np.array(bases)[:, None]
        z_nodes = z_nodes.ravel()[:last + counts[-1] + 2]
        v = table.potential(z_nodes)
        if recording:
            bound = min(bound, -_ZERO_ENERGY * max([v.max(), *v_ends]))
            recording = energy_au < bound
        # f = 1 + h^2/12 2m (E - V) in place on the V read, each chunk's
        # h^2/12 applied to its rows of that outer sum
        f = np.subtract(energy_au, v, out=v)
        f *= two_m
        h2 = hs * hs / 12.0
        full_rows = f[:last].reshape(-1, width)
        full_rows *= h2[:-1, None]
        f[last:] *= h2[-1]
        f += 1.0
        # LAPACK band storage, one column per node, each row divided by its
        # f2: a unit diagonal (row 0, which diag="U" never reads), then
        # -(12 - 10 f1)/f2, f0/f2 and 0 of the rows that read them, so the
        # serial substitution only multiplies and adds.  The two nodes at
        # the start p of each chunk repeat nodes -2 and -1 before them, or
        # -3 and -1 after a doubling, or at p = 0 hold the seed (its writes
        # before p land in band slots outside the matrix).
        doubled = p[1:][hs[1:] > hs[:-1]]
        ab = np.empty((4, z_nodes.size), order="F")
        ab[1, :-1] = (10.0 * f[:-1] - 12.0) / f[1:]
        ab[2, :-2] = f[:-2] / f[2:]
        ab[3] = 0.0
        ab[1, p - 1] = ab[1, p] = 0.0
        ab[2, p - 2] = ab[2, p - 1] = -1.0
        ab[2, doubled - 2] = 0.0
        ab[3, doubled - 3] = -1.0
        psi = np.zeros((2, z_nodes.size)).T
        psi[:2] = seed
        psi, _ = dtbtrs(ab, psi, uplo="L", diag="U", overwrite_b=True)
        total_points += sum(counts)
        z_last = float(z_nodes[-1])
        psi_tail = psi[-(counts[-1] + 2):]
        z_tail = z_nodes[-(counts[-1] + 2):]
        if h > steps[-1]:   # the step doubles after the block
            seed = psi[[-3, -1]]
        else:
            seed = psi[-2:].copy()
        if recording and counts[-1] == full:
            pending = _MarchState(z_last, h, seed, total_points, bound)
    if psi_tail is None:
        raise ValueError("integration window shorter than one step")
    if recorded:
        _MARCHES.setdefault(table, {})[key] = states + tuple(recorded)

    # project the last stretch onto the WKB basis; pick a second matching
    # point a quarter wavelength back so the 2x2 system is well conditioned
    k_end = wavevector(z_last)
    # the last chunk's own spacing: h is already doubled when the march
    # stops at the table end right after a doubling
    dz = float(z_tail[1] - z_tail[0])
    quarter = max(1, int(round(0.25 * 2.0 * math.pi / (k_end * dz))))
    j2 = len(z_tail) - 1
    j1 = max(0, j2 - quarter)
    za, zb = float(z_tail[j1]), float(z_tail[j2])
    ka, kb = wavevector(za), wavevector(zb)
    dphi = _phase_between(table, energy_au, za, zb)[0]
    # psi = c+ e^{i phi}/sqrt(k) + c- e^{-i phi}/sqrt(k), phi(za) = 0
    m11 = 1.0 / math.sqrt(ka)
    m12 = 1.0 / math.sqrt(ka)
    m21 = cmath.exp(1j * dphi) / math.sqrt(kb)
    m22 = cmath.exp(-1j * dphi) / math.sqrt(kb)
    det = m11 * m22 - m12 * m21
    psi_a = complex(*psi_tail[j1])
    psi_b = complex(*psi_tail[j2])
    c_plus = (m22 * psi_a - m12 * psi_b) / det
    c_minus = (-m21 * psi_a + m11 * psi_b) / det
    return NumerovResult(r_magnitude=abs(c_plus / c_minus), z_end=z_last,
                         n_points=total_points)
