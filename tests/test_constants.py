import math

import pytest

from qrmirror import reporting
from qrmirror.constants import CONSTANTS


def test_weight_constant_consistent_with_mass_and_g():
    # m*g recomputed from the stored mass and g agrees with the pinned
    # 102.5 neV/m to 0.2%
    assert CONSTANTS.mg == 102.5
    assert CONSTANTS.mg_computed_neV_per_m == pytest.approx(102.5, rel=2e-3)


def test_paper_unit_values():
    assert CONSTANTS.hartree == 4.3597e-18
    assert CONSTANTS.bohr == 52.917e-12
    assert CONSTANTS.c_au == pytest.approx(137.036, abs=1e-3)


def _height_energy_nev(h_m: float) -> float:
    return CONSTANTS.energy_au_from_height(h_m) * CONSTANTS.hartree_neV


def test_energy_from_height_30cm():
    assert _height_energy_nev(0.30) == pytest.approx(30.75, rel=1e-12)


def test_energy_from_height_zero():
    assert CONSTANTS.energy_au_from_height(0.0) == 0.0


def test_energy_from_height_10cm():
    assert _height_energy_nev(0.10) == pytest.approx(10.25, rel=1e-12)


def test_energy_from_height_rejects_negative():
    with pytest.raises(ValueError):
        CONSTANTS.energy_au_from_height(-1e-9)


# The neV/nm coefficients that the potential CSV/JSON reports carry.


def test_c3_unit_conversion_matches_reference_table(pc_table):
    fit = reporting.potential_table_json(pc_table)["fit"]
    assert fit["C3_neV_nm3"] == pytest.approx(1.01e6, rel=5e-3)


def test_c4_unit_conversion_matches_reference_table(pc_table):
    fit = reporting.potential_table_json(pc_table)["fit"]
    assert fit["C4_neV_nm4"] == pytest.approx(1.57e7, rel=5e-3)


def test_wavevector_and_de_broglie_wavelength_at_30cm():
    # free fall from 30 cm: v = sqrt(2gh) = 2.43 m/s, lambda = h_planck/(m v)
    # = 163.2 nm
    energy = CONSTANTS.energy_au_from_height(0.30)
    k = math.sqrt(2.0 * CONSTANTS.mass_au * energy)
    lam_nm = 2.0 * math.pi / k * CONSTANTS.bohr_nm
    assert lam_nm == pytest.approx(163.2, abs=0.5)
