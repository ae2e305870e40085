import math
import sys
import threading

import numpy as np
import pytest
from scipy.special import hankel1

from qrmirror import reflection
from qrmirror.constants import CONSTANTS
from qrmirror.lifetimes import scattering_length
from qrmirror.numerov import numerov_reflection
from qrmirror.potential import PotentialTable
from qrmirror.reflection import (
    SolveError,
    _wkb_launch,
    badlands_profile,
    badlands_q,
    reflection_sweep,
    solve_reflection,
)
from qrmirror.reporting import sweep_csv

_M = CONSTANTS.mass_au
E30 = CONSTANTS.energy_au_from_height(0.30)
E_1E7 = CONSTANTS.energy_au_from_height(1e-7)


# -- badlands ----------------------------------------------------------------


def test_badlands_zero_for_free_space():
    tab = PotentialTable.null()
    prof = badlands_profile(tab, E30)
    assert np.all(prof.q == 0.0)


def test_badlands_linear_law_in_vdw_regime(pure_c3_table):
    # pure -C3/z^3 with |V| >> E: Q = 3 hbar^2 z / (32 m C3)
    c3 = 0.25
    z = np.geomspace(1e-6, 1e-3, 40)   # |V|/E >= 2e11 here
    q = badlands_q(pure_c3_table, E30, z)
    expected = 3.0 * z / (32.0 * _M * c3)
    assert np.allclose(q, expected, rtol=0.01)


def test_badlands_peak_near_v_equals_e(pc_table):
    for h in (0.10, 0.30, 0.50):
        e = CONSTANTS.energy_au_from_height(h)
        prof = badlands_profile(pc_table, e)
        # z* solving |V(z*)| = E
        z_grid = pc_table.z
        v = np.abs(pc_table.potential(z_grid))
        z_cross = z_grid[np.argmin(np.abs(v - e))]
        assert 0.5 < prof.peak_z / z_cross < 2.0


def test_badlands_peak_trends_with_energy(pc_table):
    profs = [badlands_profile(pc_table, CONSTANTS.energy_au_from_height(h))
             for h in (0.10, 0.30, 0.50)]
    heights = [p.peak_q for p in profs]
    positions = [p.peak_z for p in profs]
    assert heights[0] > heights[1] > heights[2]
    assert positions[0] > positions[1] > positions[2]


def test_badlands_peak_positions_by_mirror(pc_table, silicon_table,
                                           silica_table):
    e10 = CONSTANTS.energy_au_from_height(0.10)
    z_pc = badlands_profile(pc_table, e10).peak_z
    z_si = badlands_profile(silicon_table, e10).peak_z
    z_sil = badlands_profile(silica_table, e10).peak_z
    assert z_pc > z_si > z_sil


# -- reflection solves -------------------------------------------------------


def test_pc_reflection_at_30cm(pc_table):
    res = solve_reflection(pc_table, E30)
    assert res.probability == pytest.approx(0.05, abs=0.01)
    assert 0.0 <= res.probability <= 1.0
    assert res.loss == pytest.approx(1.0 - res.probability)
    assert res.flux_drift < 1e-6
    # launched from the fourth-order WKB wave at z_m = 1.85 a0 and landed
    # at z_l = 1.41e4 a0: 238 Magnus panels (pinned in
    # test_pc_solve_and_oracle_at_30cm_are_pinned)
    assert res.steps <= 600


def test_pc_solve_and_oracle_at_30cm_are_pinned(pc_table):
    # Rewriting the panel arithmetic with every operation kept in order must
    # leave r and the panel count as they are.  The oracle gets 1e-10: its
    # march may round its complex division differently.  The Cash-Karp
    # solver this one replaced gave -0.17925500605335776-0.14431047937124347j
    # in 383 steps, 3.1e-8 away, within both integrators' errors.  Its
    # second-order launch gave -0.17925500725029014-0.14431047570410657j in
    # 2,919 steps; the fourth-order one must stay within the launch error
    # of it.
    res = solve_reflection(pc_table, E30)
    assert res.r == pytest.approx(
        -0.17925500742091588 - 0.14431048647501227j, rel=1e-12)
    assert res.r == pytest.approx(
        -0.17925500605335776 - 0.14431047937124347j, rel=1e-7)
    assert res.r == pytest.approx(
        -0.17925500725029014 - 0.14431047570410657j, rel=5e-8)
    assert (res.steps, res.rejected) == (238, 0)
    oracle = numerov_reflection(pc_table, E30, res.z_start, res.z_end)
    assert oracle.r_magnitude == pytest.approx(0.23012578170242243, rel=1e-10)
    # the grid depends on V alone, so it is exact
    assert oracle.n_points == 208_637
    assert oracle.z_end == 14167.229063065133


def test_pc_oracle_grid_at_1e7m_is_pinned(pc_table):
    # the low-energy end of the 30-cm pin's grid check: the window reaches
    # about 50 times further out and the step doubles 43 times, not 35, so
    # a change to the march's node layout shows here too
    res = solve_reflection(pc_table, E_1E7)
    oracle = numerov_reflection(pc_table, E_1E7, res.z_start, res.z_end)
    assert (oracle.n_points, oracle.z_end) == (211_617, 2370222.585345673)


@pytest.mark.parametrize("height", [0.30, 1e-7, 4e-7, 300.0])
@pytest.mark.parametrize("name", [
    *(f"{name}_table" for name in (
        "pc", "silicon", "silica", "slab", "graphene", "nanodiamond",
        "porous_silicon", "aerogel")),
    "pure_c4_table"])
def test_panels_are_converged(request, monkeypatch, name, height):
    # the Magnus step is sixth order in the panel width: 4x the panels must
    # move r by less than 1e-7 of |r| (at most 4.0e-8 measured, pure C4 at
    # 30 cm).  The panel error, like the launch's and the landing's (up to
    # _EDGE_TOL/4 each), is absolute on the incident amplitude |c-| = 1:
    # at 300 m, where |r| falls to 5.9e-5 (pure C4), it is at most 3.7e-9
    # (silicon), so the bound there is _EDGE_TOL; at the lower heights
    # |r| >= 0.23 keeps it at 1e-7 |r|.  Landing at z_l keeps every solve
    # within 450 panels (at most 413, aerogel at 1e-7 m)
    table = request.getfixturevalue(name)
    energy = CONSTANTS.energy_au_from_height(height)
    res = solve_reflection(table, energy)
    assert res.steps <= 450
    monkeypatch.setattr(reflection, "_PHASE_STEP_FRAC",
                        reflection._PHASE_STEP_FRAC / 4.0)
    monkeypatch.setattr(reflection, "_Z_STEP_FRAC",
                        reflection._Z_STEP_FRAC / 4.0)
    fine = solve_reflection(table, energy)
    assert fine.steps > 3 * res.steps
    assert abs(fine.r - res.r) <= max(1e-7 * abs(fine.r),
                                      reflection._EDGE_TOL)


@pytest.mark.parametrize("height", [0.30, 3000.0])
def test_panel_blocks_leave_the_solve_unchanged(pc_table, monkeypatch, height):
    # the transfer matrices are built a block of panels at a time to bound
    # the memory; blocks of 5 panels must give the same panels and, up to
    # the rounding of phi summed block by block, the same r.  c+ and c- are
    # of order 1, so that rounding is absolute (|r| is 4e-6 at 3,000 m)
    energy = CONSTANTS.energy_au_from_height(height)
    res = solve_reflection(pc_table, energy)
    monkeypatch.setattr(reflection, "_BLOCK", 5)
    small = solve_reflection(pc_table, energy)
    assert small.steps == res.steps
    assert abs(small.r - res.r) <= 1e-12


@pytest.mark.parametrize("lam", [0.1, 3.7, 10.0])
@pytest.mark.parametrize("coefficient, exponent, height", [
    (0.25, 3.0, 0.30), (0.25, 3.0, 1e-3),
    (73.6, 4.0, 0.30), (73.6, 4.0, 1e-3), (73.6, 4.0, 1e-7)])
def test_power_law_scaling_invariance(coefficient, exponent, height, lam):
    # z -> lam z, E -> E/lam^2 and C_n -> lam^(n-2) C_n leave p z, Q and the
    # equations in ln z as they are, so r and the panel layout must not move
    energy = CONSTANTS.energy_au_from_height(height)
    base = PotentialTable.from_power_law(coefficient, exponent, 1e-8, 1e7, 480)
    scaled = PotentialTable.from_power_law(
        coefficient * lam ** (exponent - 2.0), exponent, 1e-8 * lam,
        1e7 * lam, 480)
    res = solve_reflection(base, energy)
    res_scaled = solve_reflection(scaled, energy / lam**2)
    assert res_scaled.steps == res.steps
    assert abs(res_scaled.r - res.r) <= 1e-12 * abs(res.r)


@pytest.mark.parametrize("height, r_magnitude", [
    (1e-9, 0.9998716587297691), (1e-3, 0.8808973076360386),
    (3.0, 0.055040359877781816), (30.0, 0.006539492309677913),
    (300.0, 0.0003158632203428473), (3000.0, 4.3429827028968485e-06)])
def test_pc_heights_beyond_the_sweep_span(pc_table, height, r_magnitude):
    # at 1e-9 m z_end_min is the table's last point and z_l lies beyond the
    # table, so the solve lands at z_end_min, as it launches at z_start when
    # z_m lies below it; at 300 m and above |r| is 3e-4 and smaller.  The
    # |r| are the Cash-Karp solver's, to within both solvers' errors.
    res = solve_reflection(pc_table, CONSTANTS.energy_au_from_height(height))
    assert abs(abs(res.r) - r_magnitude) <= 1e-7
    assert res.flux_drift <= 1e-6


def test_silica_reflection_at_30cm(silica_table):
    res = solve_reflection(silica_table, E30)
    assert res.probability == pytest.approx(0.18, abs=0.03)


def test_solver_rejects_nonpositive_energy(pc_table):
    with pytest.raises(ValueError):
        solve_reflection(pc_table, 0.0)


@pytest.mark.parametrize("energy", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda table, e: solve_reflection(table, e),
    lambda table, e: badlands_q(table, e, 1.0),
    lambda table, e: numerov_reflection(table, e, table.z_min, table.z_max),
], ids=["solve_reflection", "badlands_q", "numerov_reflection"])
def test_energy_must_be_positive_and_finite(pure_c3_table, call, energy):
    with pytest.raises(ValueError, match="positive and finite"):
        call(pure_c3_table, energy)


def test_null_table_reflects_nothing():
    # V = 0: Q = 0 and every transfer matrix is the identity, so the general
    # solve keeps the launch state c+ = 0 exactly, without a warning
    table = PotentialTable.null()
    for height in (1e-7, 0.3, 300.0):
        res = solve_reflection(table, CONSTANTS.energy_au_from_height(height))
        assert res.r == 0.0
        assert res.probability == 0.0
        assert res.flux_drift == 0.0
        assert res.z_start == table.z_min


def test_wkb_endpoints_have_small_badlands(pc_table):
    res = solve_reflection(pc_table, E30)
    assert abs(badlands_q(pc_table, E30, res.z_start)) < 1e-8
    assert abs(badlands_q(pc_table, E30, res.z_end)) < 1e-8


def test_boundary_robustness(pc_table, silica_table, monkeypatch):
    # a 10x tighter |Q| bound moves z_start 10x and the launch point inward
    # (about 1.5 times the steps) and z_end_min outward; P must not notice
    for table in (pc_table, silica_table):
        for height in (0.3, 1.0):
            energy = CONSTANTS.energy_au_from_height(height)
            res = solve_reflection(table, energy)
            with monkeypatch.context() as m:
                m.setattr(reflection, "_EDGE_TOL", 1e-9)
                tight = solve_reflection(table, energy)
            assert tight.z_start < res.z_start
            assert tight.steps > res.steps
            assert abs(tight.probability - res.probability) <= 1e-7


@pytest.mark.parametrize("height", [0.3, 1.0])
def test_phase_reference_does_not_depend_on_the_end(pc_table, silica_table,
                                                   landings_beyond, height):
    # r is referenced to the Q-selected z_end_min, so landing at any grid
    # point in (z_l, 10 z_l] instead of z_l must leave complex r alone, not
    # just |r|: far out each panel advances 2 phi by about pi/4, and r
    # referenced to the landing point turns with the panel count (at most
    # 2.4e-11 apart here; 1.9e-9 on the registry and pure C4 at 1e-7 to
    # 300 m)
    energy = CONSTANTS.energy_au_from_height(height)
    for table in (pc_table, silica_table):
        r, landed = landings_beyond(table, energy)
        assert len(landed) > 10
        for r_far in landed:
            assert abs(r_far - r) <= 1e-8 * abs(r)


@pytest.mark.parametrize("z", [1e-3, 1e-2, 0.1, 1.0])
def test_launch_matches_the_exact_c3_absorbing_wave(pure_c3_table,
                                                    monkeypatch, z):
    # For V = -C3/z^3 at zero energy psi = sqrt(z) H1(x), x = 2 sqrt(b/z),
    # b = 2 m C3 / hbar^2, is the exact wave falling into the surface; at the
    # 1e-7 m energy E/|V| <= 2e-15 out to 1 a0.  Its log-derivative y gives
    # sigma = (ip + y)/(ip - y).  The fourth-order launch misses it by about
    # its own dropped term |y_5|/2p (above a rounding floor), the first-order
    # one (Q = 0) by |Q|/4, and at second order the series is the closed form
    # (iQ/2 - beta)/(2i - iQ/2 + beta).
    b = 2.0 * _M * 0.25
    x = 2.0 * math.sqrt(b / z)
    y = 1.0 / z - x / (2.0 * z) * hankel1(0, x) / hankel1(1, x)
    v, vp = pure_c3_table.derivatives_scalar(z)
    p = math.sqrt(2.0 * _M * (E_1E7 - v))
    exact = (1j * p + y) / (1j * p - y)
    zs = np.array([z])
    taylor = pure_c3_table.taylor(zs, 5)
    (sigma,), (dropped,) = _wkb_launch(E_1E7, zs, taylor)
    assert abs(sigma - exact) <= 1.5 * dropped + 1e-15
    q = badlands_q(pure_c3_table, E_1E7, z)
    beta = -_M * vp / (2.0 * p**3)
    first_order = -beta / (2j + beta)
    assert abs(first_order - exact) == pytest.approx(abs(q) / 4.0, rel=0.01)
    monkeypatch.setattr(reflection, "_WKB_ORDER", 2)
    (second_order,), _ = _wkb_launch(E_1E7, zs, taylor)
    closed = (0.5j * q - beta) / (2j - 0.5j * q + beta)
    assert abs(second_order - closed) <= 1e-15


def _comm(a, b):
    """[a, b] of traceless 2x2 matrices, rows (u, x, y) of [[u, x], [y, -u]]."""
    (u1, x1, y1), (u2, x2, y2) = a, b
    return np.stack((x1 * y2 - x2 * y1, 2.0 * (u1 * x2 - u2 * x1),
                     2.0 * (u2 * y1 - u1 * y2)))


def _transfer_by_commutators(table, energy, edges, phi0):
    """``reflection._transfer`` with the Magnus exponent in its commutator
    form on all three entries (u, x, y) of each matrix, A's zero diagonal
    included (Blanes, Casas & Ros, BIT 40, 434, 2000)."""
    left, h = edges[:-1, None], np.diff(edges)[:, None]
    nodes = left + h * reflection._GAUSS3
    span = h * np.append(reflection._GAUSS3, 1.0)
    zq = left[..., None] + 0.5 * span[..., None] * (1.0 + reflection._GL6_X)
    p = np.sqrt(2.0 * _M * (energy - table.potential(zq)))
    part = 0.5 * span * (p @ reflection._GL6_W)
    phi = phi0 + np.cumsum(part[:, 3])
    phase = np.exp(-2j * (np.append(phi0, phi[:-1])[:, None] + part[:, :3]))
    v, zv = table.taylor(nodes, 1)
    hg = h * zv / (-4.0 * nodes * (energy - v))
    ha = hg * np.stack((np.zeros_like(phase), phase, phase.conjugate()))
    a1 = ha[..., 1]
    a2 = math.sqrt(5.0 / 3.0) * (ha[..., 2] - ha[..., 0])
    a3 = 10.0 / 3.0 * (ha[..., 2] - 2.0 * ha[..., 1] + ha[..., 0])
    c1 = _comm(a1, a2)
    c2 = _comm(a1, 2.0 * a3 + c1) / -60.0
    u, ox, oy = a1 + a3 / 12.0 + _comm(-20.0 * a1 - a3 + c1, a2 + c2) / 240.0
    s = np.sqrt(u * u + ox * oy)
    ch, sh = np.cosh(s), np.sinc(1j * s / math.pi)
    return ((ch + sh * u).tolist(), (sh * ox).tolist(), (sh * oy).tolist(),
            (ch - sh * u).tolist(), phi.tolist())


@pytest.mark.parametrize("name", ["pc_table", "silica_table",
                                  "graphene_table", "pure_c4_table"])
@pytest.mark.parametrize("height_m", [0.30, 1e-7])
def test_magnus_exponent_on_the_off_diagonal_is_the_commutator_form(
        request, monkeypatch, name, height_m):
    # the transfer matrices carry A's zero diagonal nowhere; on every block
    # of up to _BLOCK panels of a solve their four entries and phi are those
    # of the commutator form with the zeros in, bit for bit.  Blocks of 64
    # panels split every solve, so later blocks start from phi0 != 0
    table = request.getfixturevalue(name)
    energy = CONSTANTS.energy_au_from_height(height_m)
    transfer = reflection._transfer
    blocks = []
    monkeypatch.setattr(reflection, "_BLOCK", 64)

    def recording(table, energy, edges, phi0):
        blocks.append((edges, phi0))
        return transfer(table, energy, edges, phi0)

    monkeypatch.setattr(reflection, "_transfer", recording)
    solve_reflection(table, energy)
    assert len(blocks) > 1
    for edges, phi0 in blocks:
        assert (transfer(table, energy, edges, phi0)
                == _transfer_by_commutators(table, energy, edges, phi0))


def test_solver_is_deterministic(pc_table):
    r1 = solve_reflection(pc_table, E30)
    r2 = solve_reflection(pc_table, E30)
    assert r1.r == r2.r
    assert r1.steps == r2.steps


def test_grid_too_short_raises():
    tab = PotentialTable.from_power_law(0.25, 3.0, 1e-3, 1e3, 120)
    with pytest.raises(SolveError):
        solve_reflection(tab, E30)


# -- sweeps ------------------------------------------------------------------


def test_sweep_ordering_and_monotonicity(pc_table, silicon_table, silica_table):
    heights = [0.01, 0.03, 0.1, 0.3, 1.0]
    probs = {}
    for name, tab in (("pc", pc_table), ("si", silicon_table),
                      ("silica", silica_table)):
        pts = reflection_sweep(tab, heights_m=heights)
        assert all(p.result is not None for p in pts)
        probs[name] = np.array([p.result.probability for p in pts])
    for i in range(len(heights)):
        assert probs["pc"][i] < probs["si"][i] < probs["silica"][i]
    for name in probs:
        assert np.all(np.diff(probs[name]) < 0)   # decreasing with energy


def test_sweep_threshold_law(pc_table):
    # lowest energies: loss = 1 - |r|^2 proportional to sqrt(E)
    heights = np.geomspace(1e-8, 1e-6, 9)
    pts = reflection_sweep(pc_table, heights_m=heights)
    losses = np.array([p.result.loss for p in pts])
    energies = np.array([p.energy_au for p in pts])
    const = losses / np.sqrt(energies)
    assert np.all(np.abs(const / const.mean() - 1.0) < 0.05)


def test_sweep_monotone_over_full_height_span(pc_table):
    # |r|^2 decreases with energy across the whole h = 1e-8 .. 1 m span
    heights = np.geomspace(1e-8, 1.0, 13)
    pts = reflection_sweep(pc_table, heights_m=heights)
    probs = np.array([p.result.probability for p in pts])
    assert np.all(np.diff(probs) < 0)


def test_sweep_by_energy_matches_by_height(pc_table):
    # a sweep point is the single solve at the free-fall energy
    h = 0.05
    e = CONSTANTS.energy_au_from_height(h)
    (point,) = reflection_sweep(pc_table, [h])
    assert (point.height_m, point.energy_au) == (h, e)
    assert point.result.r == solve_reflection(pc_table, e).r


def test_sweep_input_validation(pc_table):
    with pytest.raises(ValueError, match="non-negative"):
        reflection_sweep(pc_table, [0.1, -0.1])


def test_sweep_isolates_per_point_failures():
    # on a clipped grid the far WKB-exact region moves off-table for the
    # lowest energies: that point errors, the normal one still passes
    tab = PotentialTable.from_power_law(0.25, 3.0, 1e-7, 1e7, 400)
    heights = [0.3, 1e-8]
    pts = reflection_sweep(tab, heights_m=heights)
    assert pts[0].result is not None
    assert pts[1].result is None
    assert pts[1].error and "WKB-exact" in pts[1].error


def test_sweep_order_independence(pc_table):
    heights = [0.1, 0.3]
    fwd = reflection_sweep(pc_table, heights_m=heights)
    rev = reflection_sweep(pc_table, heights_m=heights[::-1])
    assert fwd[0].result.r == rev[1].result.r
    assert fwd[1].result.r == rev[0].result.r


def test_concurrent_solves_share_table(pc_table):
    # distinct-energy solves against one immutable table, run on a thread
    # pool, must reproduce the sequential results exactly
    from concurrent.futures import ThreadPoolExecutor

    heights = [0.05, 0.1, 0.2, 0.4]
    energies = [CONSTANTS.energy_au_from_height(h) for h in heights]
    sequential = [solve_reflection(pc_table, e) for e in energies]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda e: solve_reflection(pc_table, e),
                                 energies))
    for seq, thr in zip(sequential, threaded):
        assert seq.r == thr.r
        assert seq.steps == thr.steps


def test_threads_share_a_fresh_table(pc_table):
    # three threads start at once on a table that has no grid read yet, so
    # any of them may make it; with a short switch interval each solve and
    # zero-energy scattering length must equal the sequential one
    def fresh():
        return PotentialTable(pc_table.z, pc_table.V, pc_table.label)

    def work(table, height):
        energy = CONSTANTS.energy_au_from_height(height)
        return solve_reflection(table, energy), scattering_length(table)

    heights = (0.30, 1e-7, 0.42)
    alone = fresh()
    sequential = {h: work(alone, h) for h in heights}
    shared = fresh()
    assert "grid_taylor" not in vars(shared)
    start = threading.Barrier(len(heights))
    results = {}

    def run(height):
        start.wait(timeout=60)
        results[height] = work(shared, height)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(h,)) for h in heights]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert results == sequential


def test_sweep_csv_columns(pc_table, tmp_path):
    pts = reflection_sweep(pc_table, heights_m=[0.3])
    out = tmp_path / "sweep.csv"
    sweep_csv(pts, out, timestamp=False)
    lines = out.read_text().splitlines()
    assert lines[0] == "h_m,E_neV,refl_prob,loss,re_r,im_r,flux_drift"
    fields = lines[1].split(",")
    assert len(fields) == 7
    assert float(fields[0]) == pytest.approx(0.3)
    assert float(fields[1]) == pytest.approx(30.75, rel=1e-9)
