import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from qrmirror.cli import _mirror_registry
from qrmirror.constants import CONSTANTS
from qrmirror.optics import (
    DEFAULT_POLARIZABILITY,
    DielectricModel,
    Oscillator,
    Polarizability,
    SheetModel,
    bruggeman_mix,
    fresnel,
    graphene_sheet,
    load_builtin,
    sheet_reflection,
    slab_reflection,
)
from qrmirror.potential import (
    MirrorSpec,
    PotentialTable,
    build_potential_table,
    build_solver_table,
    retarded_coefficient,
    retarded_reference,
    vdw_coefficient_integral,
)
from qrmirror import potential
from qrmirror.reflection import badlands_profile, badlands_q
from qrmirror.reporting import potential_table_csv

PC = MirrorSpec.perfect_conductor()


def _v_at(mirror, z):
    """V(z) in Eh at one z: the table's quadrature on a one-point grid, so
    its q rule spans [1e-6/z, 50/z]."""
    return float(potential._potential(mirror, np.array([float(z)]))[0])


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
    for kind in ("nonsense", ["bulk"]):
        with pytest.raises(ValueError, match="unknown mirror kind"):
            MirrorSpec(kind=kind)
    with pytest.raises(ValueError):
        MirrorSpec.porous(si, 1.5)
    for thickness in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite thickness"):
            MirrorSpec.slab(si, thickness)
    with pytest.raises(ValueError, match="not a mirror"):
        MirrorSpec.porous(si, 1.0)
    # the lifetime report reads the porosity of any mirror
    with pytest.raises(ValueError, match="takes no porosity"):
        MirrorSpec(kind="bulk", dielectric=si, porosity=0.5)
    # nor any other field its kind does not read: a sheet's dielectric
    # would move its xi panels, and a bulk's thickness goes unread
    with pytest.raises(ValueError, match="sheet mirror takes no dielectric"):
        MirrorSpec(kind="sheet", sheet=graphene_sheet(),
                   dielectric=load_builtin("silica"))
    with pytest.raises(ValueError, match="bulk mirror takes no thickness"):
        MirrorSpec(kind="bulk", dielectric=load_builtin("silica"),
                   thickness_au=94.5)


def test_mirror_labels():
    assert MirrorSpec.perfect_conductor().label == "perfect conductor"
    assert "silicon" in MirrorSpec.bulk(load_builtin("silicon")).label
    por = MirrorSpec.porous(load_builtin("silica"), 0.98)
    assert (por.label, por.dielectric.name) == ("porous silica f=0.98", "silica")


_SILICA = load_builtin("silica")


@pytest.mark.parametrize("build, valid", [
    (lambda x: MirrorSpec.slab(_SILICA, x), lambda x: 0 < x < math.inf),
    (lambda x: MirrorSpec.porous(_SILICA, x), lambda x: 0 <= x < 1),
    (lambda x: MirrorSpec.conducting_sheet(SheetModel(x)),
     lambda x: 0 <= x < math.inf),
], ids=["slab", "porous", "sheet"])
@given(x=st.floats())
def test_spec_inputs_build_or_raise_value_error(build, valid, x):
    # any float, NaN and +-inf included: a spec with a label, or ValueError
    try:
        mirror = build(x)
    except ValueError:
        assert not valid(x)
    else:
        assert valid(x)
        assert isinstance(mirror.label, str)


# -- potential point ---------------------------------------------------------


def test_pc_retarded_anchor():
    # z^4 V -> -73.6 Eh a0^4 at large z
    z = 1e5
    v = _v_at(PC, z)
    assert v * z**4 == pytest.approx(-73.6, rel=0.01)


def test_pc_vdw_anchor():
    # z^3 V -> -0.25 Eh a0^3 at small z
    z = 1.0
    v = _v_at(PC, z)
    assert v * z**3 == pytest.approx(-0.25, rel=0.01)


def test_bulk_silica_retarded_within_model_tolerance():
    silica = MirrorSpec.bulk(load_builtin("silica"))
    z = 1e6
    v = _v_at(silica, z)
    assert v * z**4 == pytest.approx(-28.1, rel=0.25)


def test_potential_point_rejects_nonpositive_z():
    for z in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            build_potential_table(PC, z, 1e7, 16)
        with pytest.raises(ValueError):
            build_potential_table(PC, 1e-8, z, 16)


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
        assert _v_at(mirror, z) == pytest.approx(v, rel=1e-12, abs=0)


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
        assert _v_at(PC, z) == pytest.approx(
            _pc_potential_oracle(z), rel=1e-10, abs=0)


def _sheet_potential_oracle(eta, z):
    """Sheet V(z) as nested scipy quads in the (xi, kappa) form,
    -(1/2 pi c^3) Int dxi xi^3 alpha(i xi) Int_1^inf dkappa e^{-a kappa}
    [(2 kappa^2 - 1) r_TM - r_TE], a = 2 xi z / c, with the sheet's
    r_TM = eta kappa/(2 + eta kappa) and -r_TE = eta/(2 kappa + eta)."""
    ((strength, w),) = DEFAULT_POLARIZABILITY.oscillators
    c = CONSTANTS.c_au

    def g(kappa):
        return ((2.0 * kappa * kappa - 1.0) * eta * kappa / (2.0 + eta * kappa)
                + eta / (2.0 * kappa + eta))

    def kappa_integral(a):
        # e^{a} times the kappa integral, in u = a (kappa - 1), split at the
        # knee kappa = 2/eta of r_TM (past u = 60 it adds below e^{-60})
        def h(u):
            return math.exp(-u) * g(1.0 + u / a) / a

        u_knee = min(a * (2.0 / eta - 1.0), 60.0)
        return (quad(h, 0.0, u_knee, epsabs=0.0, epsrel=1e-13)[0]
                + quad(h, u_knee, math.inf, epsabs=0.0, epsrel=1e-13)[0])

    def f(xi):
        a = 2.0 * xi * z / c
        return (xi**3 * strength / (1.0 + (xi / w) ** 2) * math.exp(-a)
                * kappa_integral(a))

    # the atom, the retardation scale and the xi where a = eta/2
    scales = (w, c / (2 * z), eta * c / (4 * z))
    xi_lo = 1e-3 * min(scales)
    xi_hi = 1e3 * max(w, c / (2 * z))
    head = quad(f, 0.0, xi_lo, epsabs=0.0, epsrel=1e-13)[0]
    body = quad(lambda s: f(math.exp(s)) * math.exp(s),
                math.log(xi_lo), math.log(xi_hi),
                points=tuple(math.log(x) for x in scales),
                epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return -(head + body) / (2.0 * math.pi * c**3)


def test_sheet_table_matches_scalar_oracle_over_solver_range():
    # every third z of a table one decade per step: 1e-8, 1e-5, ..., 1e7 a0
    sheet = graphene_sheet()
    table = build_potential_table(MirrorSpec.conducting_sheet(sheet),
                                  1e-8, 1e7, 16)
    for z, v in zip(table.z[::3], table.V[::3]):
        assert v == pytest.approx(_sheet_potential_oracle(sheet.eta, z),
                                  rel=1e-10, abs=0)


def test_unreachable_accuracy_target_reports_estimate(monkeypatch):
    from qrmirror.potential import QuadratureError
    monkeypatch.setattr(potential, "_TARGET_REL", 1e-16)
    with pytest.raises(QuadratureError, match="relative error"):
        _v_at(PC, 1.0)


def test_q_and_xi_cuts_leave_the_value(monkeypatch):
    silica = MirrorSpec.bulk(_SILICA)
    v = _v_at(silica, 1e2)
    # a 100x lower q cut adds nothing the q rule resolves
    monkeypatch.setattr(potential, "_Q_LO", potential._Q_LO / 100.0)
    assert _v_at(silica, 1e2) == pytest.approx(v, rel=1e-14, abs=0)
    monkeypatch.undo()
    # nor does a dielectric's xi cut 100x further out
    mirrors = (silica, MirrorSpec.slab_nm(_SILICA, 5.0),
               MirrorSpec.porous(load_builtin("diamond"), 0.95))
    zs = (1e-6, 1e2, 1e5)
    values = [[_v_at(mirror, z) for z in zs] for mirror in mirrors]
    monkeypatch.setattr(potential, "_XI_CUT", 100.0 * potential._XI_CUT)
    for mirror, vs in zip(mirrors, values):
        for z, v in zip(zs, vs):
            assert _v_at(mirror, z) == pytest.approx(v, rel=1e-14, abs=0), (
                mirror.label, z)


# one mirror of each kind, on the solver range
_KINDS = {
    "pc": PC,
    "bulk": MirrorSpec.bulk(_SILICA),
    "slab": MirrorSpec.slab_nm(_SILICA, 5.0),
    "sheet": MirrorSpec.conducting_sheet(graphene_sheet()),
    "porous": MirrorSpec.porous(load_builtin("silicon"), 0.5),
}


def test_amplitude_pairs_per_table_are_few_and_grid_independent(monkeypatch):
    # amplitude pairs counted at the layer boundary, weighted by array size:
    # F(q) is evaluated once per q node, whatever the number of table points
    # (none for the perfect conductor, whose F is closed-form)
    pairs = []
    reflection = MirrorSpec.reflection

    def counted(self, xi, kappa):
        pairs.append(np.broadcast(xi, kappa).size)
        return reflection(self, xi, kappa)

    monkeypatch.setattr(MirrorSpec, "reflection", counted)
    for kind, mirror in _KINDS.items():
        counts = []
        for n_points in (48, 480):
            pairs.clear()
            build_potential_table(mirror, 1e-8, 1e7, n_points)
            counts.append(sum(pairs))
        assert (counts[1] > 0) == (kind != "pc"), kind
        assert counts[1] <= 75_000, kind
        assert counts[0] == counts[1], kind


def test_sheet_without_conductivity_is_the_free_space_table():
    # V = 0 at every z is no underflow; the knee edge eta c q / 2 is 0, so
    # the first xi panel ends at the 1e-100 cq floor
    table = build_potential_table(
        MirrorSpec.conducting_sheet(SheetModel(0.0)), 1e-8, 1e7, 16)
    assert table.is_null


def test_q_panel_width_changes_no_digits(monkeypatch):
    # panels 1 wide in ln q hold twice the q nodes of the default rule
    tables = {kind: build_potential_table(mirror, 1e-8, 1e7, 48)
              for kind, mirror in _KINDS.items()}
    monkeypatch.setattr(potential, "_Q_PANEL", 1.0)
    for kind, mirror in _KINDS.items():
        v = build_potential_table(mirror, 1e-8, 1e7, 48).V
        np.testing.assert_allclose(tables[kind].V, v, rtol=1e-13, atol=0,
                                   err_msg=kind)


def test_block_size_changes_no_digits(monkeypatch):
    # a build lays out the xi panels of all its q nodes once, and each
    # panel's K21 and G10 sums are its own, so passes of 64 panels, of 256
    # and of all of them at once, and z rows in blocks of 32 or 256, reach
    # the same V bit for bit (passes under 8 panels take BLAS's small-row
    # path and may move last bits)
    calls, panels = [], []
    f_of_q, gauss_kronrod = potential._f_of_q, potential._gauss_kronrod

    def counted(mirror, q):
        calls.append(q.size)
        return f_of_q(mirror, q)

    def sized(f, lo, *rest):
        panels.append(lo.size)
        return gauss_kronrod(f, lo, *rest)

    monkeypatch.setattr(potential, "_f_of_q", counted)
    monkeypatch.setattr(potential, "_gauss_kronrod", sized)
    for kind, mirror in _KINDS.items():
        calls.clear()
        panels.clear()
        v = build_potential_table(mirror, 1e-8, 1e7, 48).V
        assert len(calls) == 1, kind
        sizes = [("_BLOCK", 256)]
        if kind != "pc":    # the perfect conductor's F has no xi panels
            assert panels[0] > potential._PANELS, kind
            sizes += [("_PANELS", 64), ("_PANELS", panels[0] + 1)]
        for name, size in sizes:
            with monkeypatch.context() as m:
                m.setattr(potential, name, size)
                np.testing.assert_array_equal(
                    build_potential_table(mirror, 1e-8, 1e7, 48).V, v,
                    err_msg=f"{kind}, {name} = {size}")


def test_build_memory():
    # the xi panels go through the rule _PANELS at a time, so a build's
    # temporaries do not grow with its panel count: a 480-point solver
    # table peaks at 0.50-0.81 MB (3.1-5.9 MB with all panels in one pass)
    peaks = {}
    for name, mirror in _mirror_registry().items():
        tracemalloc.start()
        try:
            build_solver_table(mirror, 480)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= 1.5e6, peaks


def test_wide_grid_keeps_each_node_panels(monkeypatch):
    # the 1e-100 cq floor under a node's first xi panel is the node's own:
    # on a grid 1e120 wide, a floor taken from the table's largest cq would
    # sit far above graphene's knee (0.0115 cq) and fail the error check.
    # A node's F is the same as when F is taken 32 q nodes at a time
    sheet = _KINDS["sheet"]
    v = build_potential_table(sheet, 1e-60, 1e60, 48).V
    f_of_q = potential._f_of_q

    def blocked(mirror, q):
        parts = [f_of_q(mirror, q[i:i + 32]) for i in range(0, q.size, 32)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    monkeypatch.setattr(potential, "_f_of_q", blocked)
    np.testing.assert_allclose(
        build_potential_table(sheet, 1e-60, 1e60, 48).V, v, rtol=4e-16, atol=0)


def test_response_scales_are_the_oscillator_poles():
    # w0 up to critical damping; past it the two roots of
    # xi^2 + gamma xi + w0^2, with product w0^2 and sum gamma
    for gamma in (0.0, 0.1, 1.0):
        model = DielectricModel("m", (Oscillator(1.0, 0.25, gamma),))
        assert MirrorSpec.bulk(model).response_scales_au() == [0.5]
    for w0_sq, gamma in ((1e-2, 100.0), (1e-12, 1e-3), (0.25, 1.0 + 1e-9)):
        model = DielectricModel("m", (Oscillator(1.0, w0_sq, gamma),))
        big, small = MirrorSpec.bulk(model).response_scales_au()
        assert big * small == pytest.approx(w0_sq, rel=1e-15)
        assert big + small == pytest.approx(gamma, rel=1e-15)
        assert big > 0.5 * gamma > small > 0


@pytest.mark.parametrize("oscillator", [
    Oscillator(1.0, 1e-2, 100.0), Oscillator(0.1, 1e-12, 1e-3)],
    ids=["overdamped", "drude"])
def test_damped_oscillators_build_solver_tables(oscillator):
    # one Gauss-Kronrod pass per xi panel meets the 1e-6 target (else the
    # build raises QuadratureError) because the panel layout holds both
    # poles of a damped oscillator's eps(i xi) term; with w0 alone the
    # overdamped slab misses it (3.1e-6 at z = 78 a0 on 48 points, 1.05e-6
    # at z = 51 a0 on 480)
    model = DielectricModel("damped", (oscillator,))
    for mirror in (MirrorSpec.bulk(model), MirrorSpec.slab_nm(model, 5.0),
                   MirrorSpec.porous(model, 0.95)):
        for n_points in (48, 480):
            build_solver_table(mirror, n_points)


def test_non_finite_integrand_raises(monkeypatch):
    from qrmirror.optics import Polarizability
    from qrmirror.potential import QuadratureError
    monkeypatch.setattr(potential, "DEFAULT_POLARIZABILITY",
                        Polarizability(((math.nan, 0.4),)))
    with pytest.raises(QuadratureError, match="relative error"):
        _v_at(PC, 1.0)


def test_pc_agrees_with_huge_epsilon_bulk():
    from qrmirror.optics import DielectricModel, Oscillator
    big = DielectricModel("metalish", (Oscillator(1e12, 1e-4),))
    for z in (1.0, 1e3, 1e5):
        v_pc = _v_at(PC, z)
        v_big = _v_at(MirrorSpec.bulk(big), z)
        assert v_big == pytest.approx(v_pc, rel=5e-3)


def test_retarded_reference_constant():
    assert retarded_coefficient() == pytest.approx(73.6, rel=1e-3)
    v = retarded_reference(np.array([10.0]))
    assert v.shape == (1,)
    assert v[0] == pytest.approx(-73.6 / 1e4, rel=1e-3)


# -- closed-form C3 anchor ---------------------------------------------------


def test_vdw_integral_perfect_conductor():
    assert vdw_coefficient_integral(PC) == pytest.approx(0.25, rel=1e-9)


@pytest.mark.parametrize("name", [
    name for name, mirror in _mirror_registry().items()
    if mirror.kind != "perfect_conductor"])
def test_vdw_integral_matches_scipy_quad(name):
    # the Gauss-Kronrod panels against scipy's adaptive quad on the same
    # three ranges, [0, lo], [lo, hi] and [hi, inf)
    mirror = _mirror_registry()[name]
    alpha = DEFAULT_POLARIZABILITY

    def f(xi):
        if mirror.kind == "sheet":
            return alpha.alpha(xi)
        eps = mirror.effective_epsilon(xi)
        return alpha.alpha(xi) * (eps - 1.0) / (eps + 1.0)

    scales = [w for _, w in alpha.oscillators] + mirror.response_scales_au()
    lo, hi = 0.3 * min(scales), 30.0 * max(scales)
    expected = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-10)[0]
                   for a, b in ((0.0, lo), (lo, hi), (hi, np.inf)))
    assert vdw_coefficient_integral(mirror) == pytest.approx(
        expected / (4.0 * math.pi), rel=1e-12)


def test_vdw_integral_against_quadrature_small_z():
    # independent check of the full quadrature's sign and prefactor
    for mirror in (PC, MirrorSpec.bulk(load_builtin("silicon")),
                   MirrorSpec.bulk(load_builtin("silica"))):
        c3_closed = vdw_coefficient_integral(mirror)
        z = 1e-4
        c3_quad = -_v_at(mirror, z) * z**3
        assert c3_quad == pytest.approx(c3_closed, rel=2e-4)


# -- closed-form C4 anchor ---------------------------------------------------


def _c4_closed_form(mirror):
    """Far-zone C4 = (3 c alpha(0)/16 pi) Int_0^1 ds [(2 - s^2) r_TM
    - s^2 r_TE], the amplitudes at eps(0) and kappa = 1/s: the q -> 0 limit
    F -> alpha(0) (cq)^3 Int_0^1 ds [...] carried through the q transform."""
    if mirror.kind == "perfect_conductor":
        integral = 2.0
    else:
        eps0 = mirror.dielectric.static_epsilon

        def g(s):
            r_tm, r_te = fresnel(eps0, 1.0 / s)
            return (2.0 - s * s) * r_tm - s * s * r_te

        integral = quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]
    return (3.0 * CONSTANTS.c_au * DEFAULT_POLARIZABILITY.static
            / (16.0 * math.pi) * integral)


@pytest.mark.parametrize("name, c4", [
    ("perfect_conductor", 73.6086), ("silicon", 50.2813), ("silica", 33.0240)])
def test_far_zone_c4_matches_closed_form(registry_table, name, c4):
    closed = _c4_closed_form(_mirror_registry()[name])
    assert closed == pytest.approx(c4, abs=1e-4)
    table = registry_table(name)
    assert table.z_max == 1e7
    assert -table.V[-1] * table.z_max**4 == pytest.approx(closed, rel=1e-5)
    assert table.c4 == pytest.approx(closed, rel=2e-4)


def _c5_closed_form(mirror):
    """Thin-slab far-zone C5 = (3 alpha(0) c d/4 pi) Int_0^1 du w [(2 - u^2)
    r_TM/(1 - r_TM^2) - u^2 r_TE/(1 - r_TE^2)], w = sqrt(1 + (eps(0) - 1)
    u^2), the half-space amplitudes r at eps(0) and kappa = 1/u: the small-q
    limit r_slab -> 2 q w d r/(1 - r^2) of the slab amplitudes (q w is the
    normal wave vector inside the slab) carried through the q transform."""
    eps0 = mirror.dielectric.static_epsilon

    def g(u):
        r_tm, r_te = fresnel(eps0, 1.0 / u)
        w = math.sqrt(1.0 + (eps0 - 1.0) * u * u)
        return w * ((2.0 - u * u) * r_tm / (1.0 - r_tm * r_tm)
                    - u * u * r_te / (1.0 - r_te * r_te))

    integral = quad(g, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)[0]
    return (3.0 * DEFAULT_POLARIZABILITY.static * CONSTANTS.c_au
            * mirror.thickness_au / (4.0 * math.pi) * integral)


def test_slab_far_zone_c5_matches_closed_form(slab_table):
    closed = _c5_closed_form(_mirror_registry()["silica_slab_5nm"])
    assert closed == pytest.approx(21_257.7, abs=0.1)
    assert slab_table.z_max == 1e7
    assert -slab_table.V[-1] * slab_table.z_max**5 == pytest.approx(
        closed, rel=1e-4)
    assert slab_table.c5 == pytest.approx(closed, rel=1e-3)


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
        vq = _v_at(PC, z)
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
    v, zvp, _ = slab_table.taylor(z_test, 2)     # V, z V', z^2 V''/2
    assert abs(-zvp / v - 5.0) < 0.05
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
    # under 2.5 decades the fits leave a note, and the table still builds
    tab = PotentialTable.from_power_law(1.0, 4.0, 1.0, 30.0, 24)
    assert (tab.c3, tab.c4, tab.c5) == (None, None, None)
    assert (tab.near_exponent, tab.far_exponent) == (None, None)
    assert tab.fit_notes == ["table spans only 1.48 decades"]


def test_end_decades_with_one_point_leave_notes():
    # a grid step wider than a decade leaves one point in each end decade:
    # no line is fitted there, and no LinAlgError or warning escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tab = PotentialTable.from_power_law(1.0, 4.0, 1.0, 1e20, 16)
    assert (tab.c3, tab.c4, tab.c5) == (None, None, None)
    assert (tab.near_exponent, tab.far_exponent) == (None, None)
    assert tab.fit_notes == ["near decade holds one point: no fit",
                             "far decade holds one point: no fit"]


def test_ends_that_are_not_power_laws_leave_notes():
    # local exponent 2 + z/(1+z): about 2.7 on the first decade, 3 on the
    # last, so neither end meets its target and the table still builds
    z = np.geomspace(1.0, 1e5, 64)
    tab = PotentialTable(z, -1.0 / (z**2 * (1.0 + z)))
    assert (tab.c3, tab.c4, tab.c5) == (None, None, None)
    assert 2.5 < tab.near_exponent < 2.9
    assert tab.far_exponent == pytest.approx(3.0, abs=1e-3)
    assert tab.fit_notes == [f"near exponent {tab.near_exponent:.3f} not ~3",
                             f"far exponent {tab.far_exponent:.3f} not ~4 or ~5"]


def test_build_table_validation():
    with pytest.raises(ValueError):
        build_potential_table(PC, -1.0, 10.0, 40)
    with pytest.raises(ValueError):
        build_potential_table(PC, 0.1, 1e7, 8)
    with pytest.raises(ValueError):
        build_potential_table(PC, 0.1, math.inf, 16)


@pytest.mark.parametrize("mirror, z_lo, z_hi, bound", [
    (MirrorSpec.bulk(load_builtin("silica")), 1e-200, 1.0, "z_lo"),
    (PC, 1e-100, 1.0, "z_lo"),
    (PC, 1e-90, 1e3, "z_lo"),
    (PC, 1.0, 1e80, "z_hi"),
    (PC, 1.0, 1.16e77, "z_hi"),
])
def test_grid_bounds_outside_the_float_range_raise(mirror, z_lo, z_hi, bound):
    # -C4*/z^4 at a bound must be a normal float; these grids once made
    # numpy warn and F(q) overflow to a nan 'numerical failure'
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{bound} = "):
            build_potential_table(mirror, z_lo, z_hi, 32)


@pytest.mark.parametrize("z_lo, z_hi", [(3e-77, 1.0), (1.0, 1.15e77)])
def test_grids_at_the_float_range_edges_build_cleanly(z_lo, z_hi):
    for mirror in (PC, MirrorSpec.bulk(load_builtin("silica"))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tab = build_potential_table(mirror, z_lo, z_hi, 32)
            ratio = tab.ratio_to_retarded()
        assert np.all(np.isfinite(ratio)) and np.all(ratio > 0)


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


def test_table_rejects_non_finite_samples():
    # a NaN fails every ordering check, so without its own check a NaN V
    # spread through the whole spline, and -inf read as "not increasing"
    z = np.geomspace(potential.SOLVER_Z_LO, potential.SOLVER_Z_HI,
                     potential.SOLVER_POINTS)
    v = -73.6 / z**4 - 0.25 / z**3
    for bad in (math.nan, -math.inf):
        v_bad = v.copy()
        v_bad[300] = bad
        with pytest.raises(ValueError, match="potential must be finite"):
            PotentialTable(z, v_bad)
    z_bad = z.copy()
    z_bad[300] = math.nan
    with pytest.raises(ValueError, match="z grid must be finite"):
        PotentialTable(z_bad, v)


def test_null_table():
    tab = PotentialTable.null()
    assert tab.is_null
    assert tab.potential(3.3) == 0.0
    v, zvp, z2vpp = tab.taylor(np.array([1.0, 10.0]), 2)
    assert np.all(v == 0) and np.all(zvp == 0) and np.all(z2vpp == 0)


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


@pytest.mark.parametrize("name", [
    *_mirror_registry(), "pure_c3_table", "pure_c4_table"])
def test_spline_is_scipys_natural_cubic_spline(request, registry_table, name):
    # the numpy spline reproduces CubicSpline's coefficients bit for bit
    from scipy.interpolate import CubicSpline

    table = (request.getfixturevalue(name) if name.startswith("pure_")
             else registry_table(name))
    t = np.log(table.z)
    expected = CubicSpline(t, np.log(-table.V), bc_type="natural").c
    np.testing.assert_array_equal(table._c, expected)


def test_scalar_and_array_paths_agree(pc_table):
    # V and V' at every knot, every midpoint (in ln z) and 20k random z:
    # the two paths run the same arithmetic, so only math vs numpy log/exp
    # rounding may separate them
    t = np.log(pc_table.z)
    rng = np.random.default_rng(0)
    z = np.concatenate([pc_table.z, np.exp(0.5 * (t[1:] + t[:-1])),
                        np.exp(rng.uniform(t[0], t[-1], 20_000))])
    a0, a1, _ = pc_table.taylor(z, 2)
    array = (a0, a1 / z)
    scalar = np.array([pc_table.derivatives_scalar(zi) for zi in z]).T
    for a, s in zip(array[:2], scalar, strict=True):
        assert np.max(np.abs(s - a) / np.abs(a)) <= 1e-15
    assert np.array_equal(pc_table.potential(z), array[0])
    # a scalar z is read as a 1-element array
    assert pc_table.potential(z[-1]) == array[0][-1]


_E30 = CONSTANTS.energy_au_from_height(0.30)
_SPREAD = np.geomspace(1e-6, 1e6, 1_001)   # xi (Eh) and kappa - 1


@pytest.mark.parametrize("read, inputs", [
    (lambda tab, x: (tab.potential(x),), None),
    (lambda tab, x: (badlands_q(tab, _E30, x),), None),
    (lambda tab, x: fresnel(1.0 + x, 1.0 + x), _SPREAD),
    (lambda tab, x: slab_reflection(_SILICA, 94.5, x, 1.0 + x), _SPREAD),
    (lambda tab, x: sheet_reflection(graphene_sheet(), x, 1.0 + x), _SPREAD),
    (lambda tab, x: (bruggeman_mix(_SILICA, 0.98, x),), _SPREAD),
    (lambda tab, x: (DEFAULT_POLARIZABILITY.alpha(x),), _SPREAD),
    (lambda tab, x: (DielectricModel("vac").epsilon(x),), _SPREAD),
    (lambda tab, x: (Polarizability(()).alpha(x),), _SPREAD),
], ids=["potential", "badlands_q", "fresnel", "slab_reflection",
        "sheet_reflection", "bruggeman_mix", "alpha", "vacuum_epsilon",
        "no_alpha"])
def test_a_scalar_reads_as_its_one_element_array(pc_table, read, inputs):
    # one path serves every shape: a float in gives np.float64s out, bit
    # for bit those of the same float in a 1-element array; the table's
    # reads run over 10,001 z across the perfect-conductor solver table
    if inputs is None:
        inputs = np.geomspace(pc_table.z_min, pc_table.z_max, 10_001)
    scalar = [read(pc_table, float(x)) for x in inputs]
    array = [read(pc_table, np.array([x])) for x in inputs]
    assert {a.shape for row in array for a in row} == {(1,)}
    bits = np.array(scalar, dtype=float).view(np.int64)
    differ = np.count_nonzero(bits != np.array(array)[..., 0].view(np.int64))
    assert differ == 0, f"{differ} of {inputs.size} inputs"
    assert {type(v) for row in scalar for v in row} == {np.float64}


def test_taylor_coefficients_match_the_derivatives_and_a_power_law(pc_table):
    # a_k = z^k V^(k)/k!: the first three are the spline's (V, z V',
    # z^2 V''/2); on a pure -C3/z^3, whose ln|V| is linear in ln z, all six
    # are those of V (1 + u)^-3, V binom(-3, k), up to the rounding of the
    # spline fit (its cubic terms reach about 4e-11, not 0)
    z = np.geomspace(1e-8, 1e3, 50)
    a0, a1, a2 = pc_table.taylor(z, 2)
    v, vp, vpp = a0, a1 / z, 2.0 * a2 / (z * z)
    assert np.allclose(pc_table.taylor(z, 5)[:3],
                       [v, z * vp, 0.5 * z * z * vpp], rtol=1e-13, atol=0)
    c3 = PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)
    assert np.allclose(c3.taylor(z, 5),
                       np.multiply.outer([1, -3, 6, -10, 15, -21],
                                         c3.potential(z)),
                       rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", [
    *_mirror_registry(), "pure_c3_table", "pure_c4_table"])
def test_grid_read_is_the_taylor_read_on_the_grid(request, registry_table,
                                                  name):
    # the solver reads badlands Q and its launch series from the table's
    # kept order-5 Taylor rows on its grid: a table makes them on first use
    # only, they are taylor() there, and the lower orders taylor() gives
    # anywhere are their first rows, so every reading of them is the
    # reading taylor() gives, bit for bit
    shared = (request.getfixturevalue(name) if name.startswith("pure_")
              else registry_table(name))
    table = PotentialTable(shared.z, shared.V, shared.label)
    assert "grid_taylor" not in vars(table)
    read = table.grid_taylor
    assert table.grid_taylor is read and not read.flags.writeable
    assert np.array_equal(read, table.taylor(table.z, 5))
    t = np.log(table.z)
    rng = np.random.default_rng(0)
    for z in (table.z, np.exp(0.5 * (t[1:] + t[:-1])),
              np.exp(rng.uniform(t[0], t[-1], 2_000))):
        full = table.taylor(z, 5)
        for order in range(5):
            assert np.array_equal(table.taylor(z, order), full[:order + 1])
    for height in (1e-7, 0.30):
        energy = CONSTANTS.energy_au_from_height(height)
        assert np.array_equal(badlands_profile(table, energy).q,
                              badlands_q(table, energy, table.z))


@pytest.mark.parametrize("name", ["pc_table", "pure_c4_table", "null"])
def test_taylor_reads_z_of_any_shape(request, name):
    # a 0-d and a 2-d z read as the same z laid out flat, bit for bit, at
    # every order, and potential is the order-0 row
    tab = (PotentialTable.null() if name == "null"
           else request.getfixturevalue(name))
    z = np.geomspace(tab.z_min, tab.z_max, 12)
    for order in range(6):
        flat = tab.taylor(z, order)
        square = tab.taylor(z.reshape(3, 4), order)
        assert flat.shape == (order + 1, 12)
        assert square.shape == (order + 1, 3, 4)
        assert square.tobytes() == flat.tobytes()
        for k, x in enumerate(z):
            point = tab.taylor(x, order)
            assert point.shape == (order + 1,)
            assert point.tobytes() == flat[:, k].tobytes()
    assert (tab.potential(z.reshape(3, 4)).tobytes()
            == tab.taylor(z, 0).tobytes())


@pytest.mark.parametrize("make", [lambda: PotentialTable.from_power_law(
    0.25, 3.0, 1e-8, 1e7, 480), PotentialTable.null], ids=["c3", "null"])
def test_both_paths_raise_outside_the_table(make):
    tab = make()
    for z in (tab.z_min * (1 - 1e-9), tab.z_max * (1 + 1e-9), 1e-9, 1e8,
              math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="outside table range"):
            tab.derivatives_scalar(z)
        with pytest.raises(ValueError, match="outside table range"):
            tab.potential(z)
        with pytest.raises(ValueError, match="outside table range"):
            tab.potential(np.array([tab.z_min, z]))
        with pytest.raises(ValueError, match="outside table range"):
            tab.taylor(np.array([z, tab.z_max]), 2)
    # the ends themselves are inside
    ends = np.array([tab.z_min, tab.z_max])
    assert np.array_equal(tab.potential(ends), tab.taylor(ends, 2)[0])
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
            tab.taylor(np.array([1.0, z]), 2)


@pytest.mark.parametrize("make", [lambda: PotentialTable.from_power_law(
    0.25, 3.0, 1e-8, 1e7, 480), PotentialTable.null], ids=["c3", "null"])
def test_array_paths_read_an_empty_array(make):
    # no z is outside the table: the range check takes the extremes of
    # ln z only when there are some
    tab = make()
    empty = np.array([])
    assert tab.potential(empty).shape == (0,)
    assert tab.taylor(empty, 2).shape == (3, 0)
