import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrmirror.constants import CONSTANTS
from qrmirror.optics import (
    DEFAULT_POLARIZABILITY,
    DielectricModel,
    MaterialFileError,
    Oscillator,
    Polarizability,
    SheetModel,
    bruggeman_mix,
    builtin_material_names,
    fresnel,
    graphene_sheet,
    load_builtin,
    load_material_file,
    sheet_reflection,
    slab_reflection,
)
from qrmirror.potential import MirrorSpec

SINGLE_OSC = DielectricModel("test", (Oscillator(10.0, 1.0),))


# -- dielectric functions ----------------------------------------------------


def test_epsilon_tends_to_one_at_high_frequency():
    assert SINGLE_OSC.epsilon(1e8) == pytest.approx(1.0, abs=1e-10)


def test_epsilon_static_single_oscillator():
    # 1 + wp^2/w0^2 = 11
    assert SINGLE_OSC.epsilon(0.0) == pytest.approx(11.0, rel=1e-14)


def test_silicon_static_epsilon():
    si = load_builtin("silicon")
    assert si.static_epsilon == pytest.approx(11.87, rel=0.02)


@given(st.floats(min_value=0.0, max_value=1e3))
def test_epsilon_bounded_below_by_one(xi):
    assert SINGLE_OSC.epsilon(xi) >= 1.0


def test_epsilon_monotone_decreasing():
    for name in ("silicon", "silica", "diamond"):
        model = load_builtin(name)
        xi = np.geomspace(1e-6, 1e3, 400)
        eps = model.epsilon(xi)
        assert np.all(np.diff(eps) <= 0)
        # the scalar path does the same arithmetic as the array path
        assert [model.epsilon(x) for x in xi[::40]] == eps[::40].tolist()


def test_vacuum_model():
    vac = DielectricModel("vacuum", ())
    assert vac.is_vacuum
    assert vac.epsilon(0.3) == 1.0
    assert vac.wavelength_au is None


def test_oscillator_validation():
    with pytest.raises(MaterialFileError):
        DielectricModel("bad", (Oscillator(-1.0, 1.0),))
    with pytest.raises(MaterialFileError):
        DielectricModel("bad", (Oscillator(1.0, -1.0),))


# -- polarizability ----------------------------------------------------------


def test_alpha_static_forced_by_retarded_anchor():
    # alpha(0) = C4* 8 pi/(3 c) with C4* = 73.6 Eh a0^4
    implied = 73.6 * 8.0 * math.pi / (3.0 * CONSTANTS.c_au)
    # the reference 73.6 carries three digits, so allow its rounding width
    assert DEFAULT_POLARIZABILITY.static == pytest.approx(implied, rel=1e-3)
    assert DEFAULT_POLARIZABILITY.static == 4.5


def test_alpha_half_value_at_resonance():
    p = DEFAULT_POLARIZABILITY
    (s, w), = p.oscillators
    assert p.alpha(w) == pytest.approx(0.5 * p.static, rel=1e-14)


def test_alpha_integral_fixes_vdw_anchor():
    # (1/4pi) Int alpha = 0.25 Eh a0^3, the perfect-conductor C3
    p = DEFAULT_POLARIZABILITY
    assert p.integral / (4.0 * math.pi) == pytest.approx(0.25, rel=1e-12)
    xi = np.geomspace(1e-8, 1e6, 20001)
    numeric = np.trapezoid(p.alpha(xi), xi)
    assert numeric / (4.0 * math.pi) == pytest.approx(0.25, rel=1e-3)


def test_alpha_monotone_vanishing():
    p = DEFAULT_POLARIZABILITY
    xi = np.geomspace(1e-4, 1e5, 300)
    a = p.alpha(xi)
    assert np.all(np.diff(a) < 0)
    assert a[-1] < 1e-8


# -- Fresnel -----------------------------------------------------------------


def test_fresnel_perfect_conductor_limit():
    r_tm, r_te = fresnel(1e12, 2.0)
    assert r_tm == pytest.approx(1.0, abs=1e-5)
    assert r_te == pytest.approx(-1.0, abs=1e-5)


def test_fresnel_vacuum():
    r_tm, r_te = fresnel(1.0, 3.0)
    assert r_tm == 0.0
    assert r_te == 0.0


def test_fresnel_hand_value():
    # eps = 2, kappa = 1: s = sqrt(2), r_TM = (2 - s)/(2 + s) = 0.17157
    r_tm, r_te = fresnel(2.0, 1.0)
    assert r_tm == pytest.approx(0.17157, abs=1e-5)
    assert r_te == pytest.approx(-0.17157, abs=1e-5)


@given(
    eps=st.floats(min_value=1.0, max_value=1e8),
    kappa=st.floats(min_value=1.0, max_value=1e8),
)
def test_fresnel_bounds(eps, kappa):
    r_tm, r_te = fresnel(eps, kappa)
    assert 0.0 <= r_tm <= 1.0
    assert -1.0 <= r_te <= 0.0


# -- slab --------------------------------------------------------------------


def test_slab_opaque_limit_is_bulk():
    si = load_builtin("silicon")
    xi, kappa = 0.2, 1.7
    r_bulk = fresnel(si.epsilon(xi), kappa)
    r_slab = slab_reflection(si, 1e9, xi, kappa)
    assert r_slab[0] == pytest.approx(r_bulk[0], rel=1e-9)
    assert r_slab[1] == pytest.approx(r_bulk[1], rel=1e-9)


def test_slab_vanishing_thickness():
    si = load_builtin("silicon")
    r_tm, r_te = slab_reflection(si, 1e-12, 0.2, 1.7)
    assert abs(r_tm) < 1e-10
    assert abs(r_te) < 1e-10


@given(
    xi=st.floats(min_value=1e-6, max_value=10.0),
    kappa=st.floats(min_value=1.0, max_value=1e4),
    d=st.floats(min_value=1e-3, max_value=1e6),
)
def test_slab_never_exceeds_bulk(xi, kappa, d):
    si = load_builtin("silicon")
    r_bulk = fresnel(si.epsilon(xi), kappa)
    r_slab = slab_reflection(si, d, xi, kappa)
    assert abs(r_slab[0]) <= abs(r_bulk[0]) + 1e-12
    assert abs(r_slab[1]) <= abs(r_bulk[1]) + 1e-12


def test_slab_rejects_nonpositive_thickness():
    with pytest.raises(ValueError):
        slab_reflection(load_builtin("silicon"), 0.0, 0.1, 1.5)


# -- sheet -------------------------------------------------------------------


def test_sheet_zero_conductivity():
    r_tm, r_te = sheet_reflection(SheetModel(0.0), 0.1, 2.0)
    assert r_tm == 0.0
    assert r_te == 0.0


def test_sheet_universal_conductivity_value():
    sheet = graphene_sheet()
    r_tm, _ = sheet_reflection(sheet, 0.1, 1.0)
    # closed form (eta/2)/(1 + eta/2) at eta = pi * alpha_fs
    assert r_tm == pytest.approx(0.011335, abs=1e-5)


def test_sheet_large_kappa_limit():
    r_tm, r_te = sheet_reflection(graphene_sheet(), 0.1, 1e9)
    assert r_tm == pytest.approx(1.0, abs=1e-5)
    assert r_te == pytest.approx(0.0, abs=1e-5)


def test_sheet_rejects_negative_eta():
    with pytest.raises(ValueError):
        SheetModel(-0.1)


@pytest.mark.parametrize("eta", [math.nan, math.inf])
def test_sheet_rejects_non_finite_eta(eta):
    with pytest.raises(ValueError, match="finite"):
        SheetModel(eta)


# -- Bruggeman ---------------------------------------------------------------


def test_bruggeman_no_pores():
    si = load_builtin("silicon")
    assert bruggeman_mix(si, 0.0, 0.0) == pytest.approx(si.static_epsilon,
                                                       rel=1e-12)


def test_bruggeman_all_pores():
    assert bruggeman_mix(load_builtin("silicon"), 1.0, 0.0) == pytest.approx(
        1.0, rel=1e-12)


def test_bruggeman_half_fraction_quadratic_root():
    # eps_m = 3, f = 1/2: positive root (1 + sqrt(7))/2
    model = DielectricModel("eps3", (Oscillator(2.0, 1.0),))
    assert bruggeman_mix(model, 0.5, 0.0) == pytest.approx(
        (1 + math.sqrt(7)) / 2, rel=1e-12)


def test_bruggeman_self_consistency_residual():
    si = load_builtin("silicon")
    for f in (0.1, 0.5, 0.9, 0.95):
        eps_m = si.epsilon(0.05)
        eps = bruggeman_mix(si, f, 0.05)
        residual = ((1 - f) * (eps_m - eps) / (eps_m + 2 * eps)
                    + f * (1 - eps) / (1 + 2 * eps))
        assert abs(residual) < 1e-12


@given(f=st.floats(min_value=0.0, max_value=1.0))
def test_bruggeman_bounded(f):
    si = load_builtin("silicon")
    eps = bruggeman_mix(si, f, 0.0)
    assert 1.0 - 1e-12 <= eps <= si.static_epsilon + 1e-12


def test_bruggeman_monotone_in_porosity():
    si = load_builtin("silicon")
    fs = np.linspace(0.0, 1.0, 101)
    eps = np.array([bruggeman_mix(si, f, 0.0) for f in fs])
    assert np.all(np.diff(eps) < 0)


def test_bruggeman_root_keeps_its_digits_for_a_metal_host():
    # above 2/3 porosity e tends to 1/(3f - 2) as e_m grows, here within
    # 1e-10 of it at e_m = 1e11, where b^2 dwarfs 8 e_m
    metal = DielectricModel("metal", (Oscillator(1.0, 1e-11),))
    for f in (0.8, 0.95, 0.999):
        assert bruggeman_mix(metal, f, 0.0) == pytest.approx(
            1.0 / (3.0 * f - 2.0), rel=1e-9, abs=0), f


def test_porosity_validation():
    # a porous mirror takes f in [0, 1); the mixing rule itself takes [0, 1]
    si = load_builtin("silicon")
    assert MirrorSpec.porous(si, 0.0).porosity == 0.0
    for f in (-0.1, 1.2, math.nan):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            MirrorSpec.porous(si, f)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            bruggeman_mix(si, f, 0.0)
    with pytest.raises(ValueError, match="not a mirror"):
        MirrorSpec.porous(si, 1.0)


# -- material files ----------------------------------------------------------


def test_builtin_names_include_shipped_set():
    # every shipped material file is a dielectric a bulk mirror accepts
    names = builtin_material_names()
    assert names == ["diamond", "silica", "silicon"]
    for name in names:
        model = load_builtin(name)
        assert isinstance(model, DielectricModel) and not model.is_vacuum
        assert MirrorSpec.bulk(model).dielectric is model


def test_load_silicon_file():
    model = load_builtin("silicon")
    assert model.name == "silicon"
    assert model.static_epsilon == pytest.approx(11.87, rel=0.02)


@pytest.mark.parametrize("name", ["tolerances", "../materials/silica",
                                  "perfect_conductor", "graphene"])
def test_load_builtin_takes_only_shipped_names(name):
    # other files under materials/, or paths that lead back to a shipped
    # one, are not shipped materials
    with pytest.raises(MaterialFileError, match=(
            rf"^unknown material '{re.escape(name)}'; "
            r"shipped: diamond, silica, silicon$")):
        load_builtin(name)
    assert load_builtin("silica").name == "silica"


def test_empty_oscillator_list_is_vacuum(tmp_path):
    path = tmp_path / "empty"
    path.write_text("name = nothing\n")
    model = load_material_file(path)
    assert model.is_vacuum
    assert model.epsilon(0.0) == 1.0


def test_negative_resonance_rejected_with_line_number(tmp_path):
    path = tmp_path / "bad"
    path.write_text("name = bad\nosc = 1.0, -2.0, 0.0\n")
    with pytest.raises(MaterialFileError, match=":2:"):
        load_material_file(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("slot", range(3))
def test_non_finite_oscillator_rejected_with_line_number(tmp_path, bad, slot):
    values = ["1.0", "0.5", "0.1"]
    values[slot] = bad
    path = tmp_path / "bad"
    path.write_text(f"name = bad\nosc = {', '.join(values)}\n")
    with pytest.raises(MaterialFileError, match=":2: non-finite"):
        load_material_file(path)


@pytest.mark.parametrize("text, line", [
    ("name = both\nkind = perfect_conductor\nosc = 1.0, 0.5, 0.1\n", 2),
    ("name = both\nosc = 1.0, 0.5, 0.1\nkind = perfect_conductor\n", 3),
], ids=["kind-first", "osc-first"])
def test_perfect_conductor_with_oscillators_rejected(tmp_path, text, line):
    # a material file describes a dielectric: `kind` is no key of it
    path = tmp_path / "both"
    path.write_text(text)
    with pytest.raises(MaterialFileError,
                       match=f":{line}: unknown key 'kind'"):
        load_material_file(path)


def test_malformed_line_reports_position(tmp_path):
    path = tmp_path / "bad"
    path.write_text("name = x\nosc 1.0, 1.0, 0.0\n")
    with pytest.raises(MaterialFileError, match=":2:"):
        load_material_file(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    path = tmp_path / "ok"
    path.write_text("# header\n\nname = ok  # trailing\nosc = 1.0, 1.0, 0.0\n")
    model = load_material_file(path)
    assert model.name == "ok"
    assert len(model.oscillators) == 1


def test_missing_name_rejected(tmp_path):
    path = tmp_path / "anon"
    path.write_text("osc = 1.0, 1.0, 0.0\n")
    with pytest.raises(MaterialFileError, match="name"):
        load_material_file(path)


def test_polarizability_custom_model():
    p = Polarizability(((3.0, 0.5), (1.5, 1.0)))
    assert p.static == 4.5
    assert p.integral == pytest.approx(3.0 * 0.5 * math.pi / 2
                                       + 1.5 * 1.0 * math.pi / 2)
