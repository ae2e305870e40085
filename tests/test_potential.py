import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from qrmirror.constants import CONSTANTS
from qrmirror.optics import DEFAULT_POLARIZABILITY, graphene_sheet, load_builtin
from qrmirror.potential import (
    AsymptoticsError,
    MirrorSpec,
    PotentialTable,
    build_potential_table,
    cp_potential_point,
    extract_asymptotics,
    retarded_coefficient,
    retarded_reference,
    vdw_coefficient_integral,
)
from qrmirror.reporting import potential_table_csv

PC = MirrorSpec.perfect_conductor()


@pytest.fixture(scope="module")
def pc_default_table():
    """Perfect conductor on [0.1, 1e7] a0 x 400, coarser than the solver
    grid."""
    return build_potential_table(PC, 0.1, 1e7, 400)


# -- mirror specification ----------------------------------------------------


def test_mirror_validation():
    si = load_builtin("silicon")
    with pytest.raises(ValueError):
        MirrorSpec.slab(si, -1.0)
    with pytest.raises(ValueError):
        MirrorSpec(kind="bulk")
    with pytest.raises(ValueError):
        MirrorSpec(kind="nonsense")
    with pytest.raises(ValueError):
        MirrorSpec.porous(si, 1.5)
    for thickness in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite thickness"):
            MirrorSpec.slab(si, thickness)
    with pytest.raises(ValueError, match="not a mirror"):
        MirrorSpec.porous(si, 1.0)


def test_mirror_labels():
    assert MirrorSpec.perfect_conductor().label == "perfect conductor"
    assert "silicon" in MirrorSpec.bulk(load_builtin("silicon")).label


# -- potential point ---------------------------------------------------------


def test_pc_retarded_anchor():
    # z^4 V -> -73.6 Eh a0^4 at large z
    z = 1e5
    v = cp_potential_point(PC, z)
    assert v * z**4 == pytest.approx(-73.6, rel=0.01)


def test_pc_vdw_anchor():
    # z^3 V -> -0.25 Eh a0^3 at small z
    z = 1.0
    v = cp_potential_point(PC, z)
    assert v * z**3 == pytest.approx(-0.25, rel=0.01)


def test_bulk_silica_retarded_within_model_tolerance():
    silica = MirrorSpec.bulk(load_builtin("silica"))
    z = 1e6
    v = cp_potential_point(silica, z)
    assert v * z**4 == pytest.approx(-28.1, rel=0.25)


def test_potential_point_rejects_nonpositive_z():
    for z in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            cp_potential_point(PC, z)


_SILICA = load_builtin("silica")


# V(z) in Eh of each mirror kind at z = 1e-6, 1e2 and 1e5 a0, pinned at
# 1e-12 relative: the physics tolerances elsewhere would let a drift of the
# reflection amplitudes or of the quadrature pass unseen.
@pytest.mark.parametrize("mirror, pinned", [
    (PC, (-2.499999994838179e+17, -2.036530133040789e-07,
          -7.360743741151347e-19)),
    (MirrorSpec.bulk(_SILICA), (-5.205226923829111e+16, -4.7295175082374795e-08,
                                -3.2126341877092377e-19)),
    (MirrorSpec.slab_nm(_SILICA, 5.0), (-5.205226923829111e+16,
                                        -4.2224468996251444e-08,
                                        -1.9557110662874343e-21)),
    (MirrorSpec.conducting_sheet(graphene_sheet()),
     (-2.4999933317203715e+17, -2.380704497950035e-08,
      -3.6781920043030276e-20)),
    (MirrorSpec.porous(load_builtin("diamond"), 0.95),
     (-7170541469633105.0, -6.4640626329355395e-09, -2.631289668603117e-20)),
], ids=["pc", "bulk", "slab", "sheet", "porous"])
def test_potential_point_parity(mirror, pinned):
    for z, v in zip((1e-6, 1e2, 1e5), pinned):
        assert cp_potential_point(mirror, z) == pytest.approx(v, rel=1e-12, abs=0)


def _pc_potential_oracle(z):
    """Perfect-conductor V(z) as a 1-d scipy quad over xi of
    xi^3 alpha(i xi) 2 e^{-a} (a^2 + 2a + 2) / a^3, a = 2 xi z / c."""
    ((strength, w),) = DEFAULT_POLARIZABILITY.oscillators
    c = CONSTANTS.c_au

    def f(xi):
        a = 2.0 * xi * z / c
        return (xi**3 * strength / (1.0 + (xi / w) ** 2)
                * 2.0 * math.exp(-a) * (a * a + 2.0 * a + 2.0) / a**3)

    # flat below xi_lo; e^{-a} <= e^{-2000} above xi_hi
    xi_lo = 1e-3 * min(w, c / (2 * z))
    xi_hi = 1e3 * max(w, c / (2 * z))
    head = quad(f, 0.0, xi_lo, epsabs=0.0, epsrel=1e-13)[0]
    body = quad(lambda s: f(math.exp(s)) * math.exp(s),
                math.log(xi_lo), math.log(xi_hi),
                points=(math.log(w), math.log(c / (2 * z))),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return -(head + body) / (2.0 * math.pi * c**3)


def test_pc_potential_matches_scalar_oracle_over_solver_range():
    for z in np.geomspace(1e-8, 1e7, 15):
        assert cp_potential_point(PC, z) == pytest.approx(
            _pc_potential_oracle(z), rel=1e-10, abs=0)


def test_unreachable_accuracy_target_reports_estimate(monkeypatch):
    from qrmirror import potential
    from qrmirror.potential import QuadratureError
    monkeypatch.setattr(potential, "_TARGET_REL", 1e-16)
    with pytest.raises(QuadratureError, match="relative error"):
        cp_potential_point(PC, 1.0)


def test_tail_and_refinement_limits_leave_the_value(monkeypatch):
    from qrmirror import potential
    v = cp_potential_point(PC, 1e2)
    # every tail decade is summed until e^{-a} underflows to exactly 0
    monkeypatch.setattr(potential, "_NEGLIGIBLE", 0.0)
    assert cp_potential_point(PC, 1e2) == pytest.approx(v, rel=1e-14, abs=0)
    # no panel ever meets a zero budget: refinement stops at the panel cap
    monkeypatch.setattr(potential, "_PANEL_RTOL", 0.0)
    assert cp_potential_point(PC, 1e2) == pytest.approx(v, rel=1e-14, abs=0)


def test_non_finite_integrand_raises(monkeypatch):
    from qrmirror import potential
    from qrmirror.optics import Polarizability
    from qrmirror.potential import QuadratureError
    monkeypatch.setattr(potential, "DEFAULT_POLARIZABILITY",
                        Polarizability(((math.nan, 0.4),)))
    with pytest.raises(QuadratureError, match="relative error"):
        cp_potential_point(PC, 1.0)


def test_pc_agrees_with_huge_epsilon_bulk():
    from qrmirror.optics import DielectricModel, Oscillator
    big = DielectricModel("metalish", (Oscillator(1e12, 1e-4),))
    for z in (1.0, 1e3, 1e5):
        v_pc = cp_potential_point(PC, z)
        v_big = cp_potential_point(MirrorSpec.bulk(big), z)
        assert v_big == pytest.approx(v_pc, rel=5e-3)


def test_retarded_reference_constant():
    assert retarded_coefficient() == pytest.approx(73.6, rel=1e-3)
    assert retarded_reference(10.0) == pytest.approx(-73.6 / 1e4, rel=1e-3)


# -- closed-form C3 anchor ---------------------------------------------------


def test_vdw_integral_perfect_conductor():
    assert vdw_coefficient_integral(PC) == pytest.approx(0.25, rel=1e-9)


def test_vdw_integral_against_quadrature_small_z():
    # independent check of the full quadrature's sign and prefactor
    for mirror in (PC, MirrorSpec.bulk(load_builtin("silicon")),
                   MirrorSpec.bulk(load_builtin("silica"))):
        c3_closed = vdw_coefficient_integral(mirror)
        z = 1e-4
        c3_quad = -cp_potential_point(mirror, z) * z**3
        assert c3_quad == pytest.approx(c3_closed, rel=2e-4)


# -- tables ------------------------------------------------------------------


def test_pc_table_asymptotics(pc_default_table):
    assert pc_default_table.c3 == pytest.approx(0.25, rel=0.01)
    assert pc_default_table.c4 == pytest.approx(73.6, rel=0.01)
    assert pc_default_table.c5 is None


def test_table_anchor_identity(pc_default_table):
    # fitted C3 against the closed-form integral, 2%
    assert pc_default_table.c3 == pytest.approx(vdw_coefficient_integral(PC),
                                                rel=0.02)


def test_silicon_silica_table1_values(silicon_table, silica_table):
    assert silicon_table.c3 == pytest.approx(0.10, rel=0.25)
    assert silicon_table.c4 == pytest.approx(50.3, rel=0.25)
    assert silica_table.c3 == pytest.approx(0.05, rel=0.25)
    assert silica_table.c4 == pytest.approx(28.1, rel=0.25)


def test_interpolation_contract(pc_default_table):
    # off-grid interpolated values within 0.1% of direct quadrature
    for z in (0.37, 12.9, 431.0, 2.7e4, 3.3e6):
        vi = pc_default_table.potential(z)
        vq = cp_potential_point(PC, z)
        assert vi == pytest.approx(vq, rel=1e-3)


def test_ratio_curve_shape(pc_default_table):
    # V/V* rises from ~ C3 z / C4* to the constant C4/C4* <= 1
    t = pc_default_table
    ratio = t.ratio_to_retarded()
    assert np.all(np.diff(ratio) > 0)
    z0 = t.z[0]
    assert ratio[0] == pytest.approx(0.25 * z0 / 73.609, rel=0.01)
    assert ratio[-1] == pytest.approx(1.0, rel=0.005)
    assert np.all(ratio <= 1.0 + 1e-9)


def test_potential_ordering_pc_si_silica(pc_table, silicon_table, silica_table):
    z = np.geomspace(1e-6, 1e6, 200)
    v_pc = np.abs(pc_table.potential(z))
    v_si = np.abs(silicon_table.potential(z))
    v_sil = np.abs(silica_table.potential(z))
    assert np.all(v_pc >= v_si)
    assert np.all(v_si >= v_sil)


def test_slab_matches_bulk_well_inside(silica_table, slab_table):
    # d = 5 nm: for z = 1 nm << d the slab potential is bulk-like (5%)
    z_nm1 = 1.0 / CONSTANTS.bohr_nm
    assert slab_table.potential(z_nm1) == pytest.approx(
        silica_table.potential(z_nm1), rel=0.05)


def test_slab_far_exponent_is_five(slab_table):
    # beyond 30*max(d, lambda) the slab potential falls off one power faster
    d_au = 5.0 / CONSTANTS.bohr_nm
    lam = load_builtin("silica").wavelength_au
    z_test = 30.0 * max(d_au, lam)
    v, vp, _ = slab_table.derivatives(z_test)
    assert abs(-z_test * vp / v - 5.0) < 0.05
    assert slab_table.c5 is not None
    assert slab_table.c4 is None


def test_slab_bulk_crossover(silica_table, slab_table):
    d_au = 5.0 / CONSTANTS.bohr_nm
    z = np.geomspace(slab_table.z_min * 2, d_au / 3.0, 50)
    ratio = slab_table.potential(z) / silica_table.potential(z)
    assert np.all(np.abs(ratio - 1.0) < 0.05)


def test_synthetic_power_law_interpolation_exact():
    tab = PotentialTable.from_power_law(1.0, 4.0, 1e-2, 1e6, 120)
    z = np.geomspace(2e-2, 5e5, 77)   # off-node points
    assert np.allclose(tab.potential(z), -1.0 / z**4, rtol=1e-12)
    # exact at the nodes as well
    assert np.allclose(tab.potential(tab.z), tab.V, rtol=1e-13)


def test_synthetic_c5_extraction():
    tab = PotentialTable.from_power_law(7.0, 5.0, 1e-2, 1e6, 120)
    assert tab.c5 == pytest.approx(7.0, rel=1e-9)
    assert tab.c4 is None
    assert tab.c3 is None   # near exponent is 5, not 3


def test_extraction_requires_range():
    tab = PotentialTable.from_power_law(1.0, 4.0, 1.0, 30.0, 24)
    with pytest.raises(AsymptoticsError):
        extract_asymptotics(tab)


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_potential_table(PC, -1.0, 10.0, 40)
    with pytest.raises(ValueError):
        build_potential_table(PC, 0.1, 1e7, 8)
    with pytest.raises(ValueError):
        build_potential_table(PC, 0.1, math.inf, 16)


def test_table_rejects_bad_samples():
    z = np.geomspace(1, 100, 16)
    with pytest.raises(ValueError):
        PotentialTable(z, np.abs(1 / z**4))     # positive potential
    with pytest.raises(ValueError):
        PotentialTable(z, -np.linspace(1, 2, 16))  # |V| increasing


def test_table_rejects_grid_that_is_not_log_uniform():
    z = np.linspace(1.0, 100.0, 16)
    with pytest.raises(ValueError, match="log-uniform"):
        PotentialTable(z, -1.0 / z**4)
    z = np.geomspace(1.0, 100.0, 16)
    z[7] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="log-uniform"):
        PotentialTable(z, -1.0 / z**4)


def test_null_table():
    tab = PotentialTable.null()
    assert tab.is_null
    assert tab.potential(3.3) == 0.0
    v, vp, vpp = tab.derivatives(np.array([1.0, 10.0]))
    assert np.all(v == 0) and np.all(vp == 0) and np.all(vpp == 0)


def test_csv_export_columns(pc_default_table, tmp_path):
    out = tmp_path / "table.csv"
    potential_table_csv(pc_default_table, out, timestamp=False)
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "z_a0,z_nm,V_Eh,V_neV,V_over_Vstar"
    assert any("C3_Eh_a03" in ln for ln in lines)
    assert any("C4_Eh_a04" in ln for ln in lines)
    first = [ln for ln in lines if not ln.startswith("#")][1].split(",")
    z_a0, z_nm, v_eh, v_nev, ratio = map(float, first)
    assert z_nm == pytest.approx(z_a0 * CONSTANTS.bohr_nm, rel=1e-9)
    assert v_nev == pytest.approx(v_eh * CONSTANTS.hartree_neV, rel=1e-9)
    assert ratio == pytest.approx(v_eh / retarded_reference(z_a0), rel=1e-9)


# -- one evaluator -----------------------------------------------------------


def test_scalar_and_array_paths_agree(pc_table):
    # V, V', V'' at every knot, every midpoint (in ln z) and 20k random z:
    # the two paths run the same arithmetic, so only math vs numpy log/exp
    # rounding may separate them
    t = np.log(pc_table.z)
    rng = np.random.default_rng(0)
    z = np.concatenate([pc_table.z, np.exp(0.5 * (t[1:] + t[:-1])),
                        np.exp(rng.uniform(t[0], t[-1], 20_000))])
    array = pc_table.derivatives(z)
    scalar = np.array([pc_table.derivatives_scalar(zi) for zi in z]).T
    for a, s in zip(array, scalar):
        assert np.max(np.abs(s - a) / np.abs(a)) <= 1e-15
    assert np.array_equal(pc_table.potential(z), array[0])
    assert pc_table.potential(z[-1]) == scalar[0][-1]


@pytest.mark.parametrize("make", [lambda: PotentialTable.from_power_law(
    0.25, 3.0, 1e-8, 1e7, 480), PotentialTable.null], ids=["c3", "null"])
def test_both_paths_raise_outside_the_table(make):
    tab = make()
    for z in (tab.z_min * (1 - 1e-9), tab.z_max * (1 + 1e-9), 1e-9, 1e8,
              math.nan):
        with pytest.raises(ValueError, match="outside table range"):
            tab.derivatives_scalar(z)
        with pytest.raises(ValueError, match="outside table range"):
            tab.potential(z)
        with pytest.raises(ValueError, match="outside table range"):
            tab.potential(np.array([tab.z_min, z]))
        with pytest.raises(ValueError, match="outside table range"):
            tab.derivatives(np.array([z, tab.z_max]))
    # the ends themselves are inside
    ends = np.array([tab.z_min, tab.z_max])
    assert np.array_equal(tab.potential(ends), tab.derivatives(ends)[0])
    assert np.allclose([tab.derivatives_scalar(z)[0] for z in ends],
                       tab.potential(ends), rtol=1e-15, atol=0)


@pytest.mark.parametrize("z", [0.0, -1.0])
def test_array_paths_raise_for_non_positive_z_without_a_warning(z):
    tab = PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside table range"):
            tab.potential(np.array([z, 1.0]))
        with pytest.raises(ValueError, match="outside table range"):
            tab.derivatives(np.array([1.0, z]))
