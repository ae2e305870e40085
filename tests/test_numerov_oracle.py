"""Cross-validation of the coupled-amplitude solver against the independent
Numerov wavefunction oracle, plus the exact zero-energy result for the pure
inverse-fourth-power potential.
"""

import cmath
import math
import sys

import numpy as np
import pytest

from qrmirror import numerov
from qrmirror.constants import CONSTANTS
from qrmirror.lifetimes import scattering_length
from qrmirror.numerov import numerov_reflection
from qrmirror.potential import PotentialTable
from qrmirror.reflection import solve_reflection

_M = CONSTANTS.mass_au
E30 = CONSTANTS.energy_au_from_height(0.30)
ENERGIES = [E30, CONSTANTS.energy_au_from_height(1.0)]


def _compare(table):
    # the solver launches past the near-surface flank, the oracle marches
    # through it from z_start: their |r| agree to the launch error
    for energy in ENERGIES:
        res = solve_reflection(table, energy)
        oracle = numerov_reflection(table, energy, res.z_start, res.z_end)
        assert abs(res.r) == pytest.approx(oracle.r_magnitude, abs=1e-6)


def test_oracle_agreement_pure_c4(pure_c4_table):
    _compare(pure_c4_table)


def test_oracle_agreement_pure_c3(pure_c3_table):
    _compare(pure_c3_table)


def test_oracle_agreement_perfect_conductor(pc_table):
    _compare(pc_table)


def test_oracle_agreement_silica(silica_table):
    _compare(silica_table)


def test_oracle_agreement_slab(slab_table):
    _compare(slab_table)


def test_oracle_agreement_graphene(graphene_table):
    _compare(graphene_table)


def test_window_ending_at_the_table_end():
    # a window up to z_max is allowed: the march must stop at the table end
    # instead of reading V up to two steps beyond it
    tab = PotentialTable.from_power_law(73.6, 4.0, 1e-2, 1e6, 200)
    res = solve_reflection(tab, E30)
    full = numerov_reflection(tab, E30, res.z_start, tab.z_max)
    assert res.z_end < full.z_end <= tab.z_max
    assert (full.n_points, full.z_end) == (52_862, 999994.8425253484)
    short = numerov_reflection(tab, E30, res.z_start, res.z_end)
    assert full.r_magnitude == pytest.approx(short.r_magnitude, abs=1e-6)
    with pytest.raises(ValueError, match="shorter than one step"):
        numerov_reflection(tab, E30, tab.z_max * (1 - 1e-8), tab.z_max)


def _scalar_march(table, energy, z_start, z_end):
    """The oracle with its march as one scalar loop over complex psi per
    chunk: the reference for the banded solves, same grid and seed."""
    def k(z):
        return np.sqrt(2.0 * _M * (energy - table.potential(z)))

    ppw = float(numerov._POINTS_PER_WAVELENGTH)
    k0 = float(k(z_start))
    h = 2.0 * math.pi / (k0 * ppw)
    phi = numerov._phase_between(table, energy, z_start, z_start + h)
    prev = 1.0 / math.sqrt(k0) + 0.0j
    last = (1.0 / math.sqrt(float(k(z_start + h)))) * cmath.exp(-1j * phi)
    z_last, n_points = z_start + h, 2
    while True:
        n = int(min(max(64, 4 * ppw), math.ceil((z_end - z_last) / h) + 1,
                    (table.z_max - z_last) // h))
        if n < 1:
            break
        z_tail = z_last + h * np.arange(-1, n + 1)
        f = (1.0 + (h * h / 12.0) * k(z_tail) ** 2).tolist()
        tail = [prev, last]
        for f0, f1, f2 in zip(f, f[1:], f[2:]):
            tail.append(((12.0 - 10.0 * f1) * tail[-1] - f0 * tail[-2]) / f2)
        n_points += n
        z_last = float(z_tail[-1])
        if z_last >= z_end:
            break
        prev, last = tail[-2], tail[-1]
        if 2.0 * math.pi / (float(k(z_last)) * h) >= 2.0 * ppw:
            prev = tail[-3]
            h *= 2.0
    j2 = len(z_tail) - 1
    dz = float(z_tail[1] - z_tail[0])   # h may be doubled past the tail
    j1 = max(0, j2 - max(1, round(0.5 * math.pi / (float(k(z_last)) * dz))))
    za, zb = float(z_tail[j1]), float(z_tail[j2])
    # psi = c+ e^{i phi}/sqrt(k) + c- e^{-i phi}/sqrt(k), phi(za) = 0
    dphi = numerov._phase_between(table, energy, za, zb)
    a, b = 1.0 / math.sqrt(float(k(za))), 1.0 / math.sqrt(float(k(zb)))
    c_plus = b * cmath.exp(-1j * dphi) * tail[j1] - a * tail[j2]
    c_minus = a * tail[j2] - b * cmath.exp(1j * dphi) * tail[j1]
    return abs(c_plus / c_minus), n_points, z_last


@pytest.mark.parametrize("name, height_m", [
    ("pure_c4_table", 0.30), ("pure_c4_table", 1e-7), ("pure_c3_table", 0.30),
    ("pc_table", 0.30), ("pc_table", 1e-7)])
@pytest.mark.parametrize("to_table_end", [False, True])
def test_banded_march_matches_the_scalar_loop(request, name, height_m,
                                              to_table_end):
    # the same recurrence on the same grid: the banded march divides each
    # row by its f2 before the solve and takes f straight from V, the loop
    # divides after each step and squares k, so only rounding may differ;
    # the PC table checks this on a fitted spline, not a pure power law
    table = request.getfixturevalue(name)
    energy = CONSTANTS.energy_au_from_height(height_m)
    res = solve_reflection(table, energy)
    z_end = table.z_max if to_table_end else res.z_end
    oracle = numerov_reflection(table, energy, res.z_start, z_end)
    r, n_points, z_last = _scalar_march(table, energy, res.z_start, z_end)
    assert (oracle.n_points, oracle.z_end) == (n_points, z_last)
    assert oracle.r_magnitude == pytest.approx(r, rel=1e-11)


@pytest.mark.parametrize("height_m", [0.30, 1e-7])
def test_block_size_leaves_the_march_unchanged(pc_table, monkeypatch,
                                               height_m):
    # one chunk per block carries the seed rows across every chunk end, and
    # one block up to each doubling cuts at it: both march the same grid
    # with the same arithmetic as the default blocks
    energy = CONSTANTS.energy_au_from_height(height_m)
    res = solve_reflection(pc_table, energy)
    runs = []
    for chunks in (numerov._BLOCK_CHUNKS, 1, 10_000):
        monkeypatch.setattr(numerov, "_BLOCK_CHUNKS", chunks)
        runs.append(numerov_reflection(pc_table, energy,
                                       res.z_start, res.z_end))
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


def test_oracle_self_convergence(pure_c4_table, monkeypatch):
    res = solve_reflection(pure_c4_table, E30)
    monkeypatch.setattr(numerov, "_POINTS_PER_WAVELENGTH", 60)
    coarse = numerov_reflection(pure_c4_table, E30, res.z_start, res.z_end)
    monkeypatch.setattr(numerov, "_POINTS_PER_WAVELENGTH", 200)
    fine = numerov_reflection(pure_c4_table, E30, res.z_start, res.z_end)
    assert coarse.r_magnitude == pytest.approx(fine.r_magnitude, abs=2e-5)


def test_scattering_length_matches_exact_inverse_fourth(pure_c4_table):
    # For V = -C4/z^4 with full absorption the zero-energy solution is
    # psi = z exp(i sqrt(2 m C4)/z / hbar), giving a = -i sqrt(2 m C4)/hbar
    # exactly; both parts of the zero-energy solve's a must land within
    # 1e-6 of it (9.3e-8 and 2.7e-7 measured).
    exact = math.sqrt(2.0 * _M * 73.6)
    sl = scattering_length(pure_c4_table)
    assert abs(sl.a.real) <= 1e-6 * exact
    assert abs(-sl.a.imag - exact) <= 1e-6 * exact


def test_scattering_length_against_numerov_extraction(pure_c4_table):
    # repeat the threshold-law extraction with losses from the oracle path
    heights = (1e-7, 4e-7)
    estimates = []
    ks = []
    for h in heights:
        energy = CONSTANTS.energy_au_from_height(h)
        res = solve_reflection(pure_c4_table, energy)
        oracle = numerov_reflection(pure_c4_table, energy,
                                    res.z_start, res.z_end)
        k = math.sqrt(2.0 * _M * energy)
        estimates.append((1.0 - oracle.r_magnitude**2) / (4.0 * k))
        ks.append(k)
    im_a_oracle = (ks[1] * estimates[0] - ks[0] * estimates[1]) / (ks[1] - ks[0])
    sl = scattering_length(pure_c4_table)
    assert -sl.a.imag == pytest.approx(im_a_oracle, rel=0.01)


def test_oracle_without_scipy_names_the_extra(pure_c4_table, monkeypatch):
    # scipy is a test dependency, not a runtime one: without it the oracle
    # says which extra to install
    monkeypatch.setitem(sys.modules, "scipy.linalg.lapack", None)
    with pytest.raises(ImportError, match=r"qrmirror\[test\]"):
        numerov_reflection(pure_c4_table, E30, 1.0, 10.0)
