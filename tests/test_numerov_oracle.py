"""Cross-validation of the coupled-amplitude solver against the independent
Numerov wavefunction oracle, plus the exact zero-energy result for the pure
inverse-fourth-power potential.
"""

import math

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
    short = numerov_reflection(tab, E30, res.z_start, res.z_end)
    assert full.r_magnitude == pytest.approx(short.r_magnitude, abs=1e-6)
    with pytest.raises(ValueError, match="shorter than one step"):
        numerov_reflection(tab, E30, tab.z_max * (1 - 1e-8), tab.z_max)


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
    # exactly; the threshold extraction must land within 1%.
    exact = math.sqrt(2.0 * _M * 73.6)
    sl = scattering_length(pure_c4_table)
    assert -sl.a.imag == pytest.approx(exact, rel=0.01)


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
