import math

import numpy as np
import pytest
from scipy.special import hankel1

from qrmirror.constants import CONSTANTS
from qrmirror.numerov import numerov_reflection
from qrmirror.potential import PotentialTable
from qrmirror.reflection import (
    SolveError,
    SolveOptions,
    _launch_ratio,
    badlands_profile,
    badlands_q,
    reflection_sweep,
    solve_reflection,
)
from qrmirror.reporting import sweep_csv

_M = CONSTANTS.mass_au
E30 = CONSTANTS.energy_au_from_height(0.30)


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
    # the launch past the near-surface flank: 43,441 steps from z_start
    assert res.steps <= 3_500


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
    res = solve_reflection(PotentialTable.null(), E30)
    assert res.r == 0.0
    assert res.probability == 0.0


def test_wkb_endpoints_have_small_badlands(pc_table):
    res = solve_reflection(pc_table, E30)
    assert abs(badlands_q(pc_table, E30, res.z_start)) < 1e-8
    assert abs(badlands_q(pc_table, E30, res.z_end)) < 1e-8


def test_phase_reference_invariance(pc_table):
    # shifting the arbitrary WKB phase origin rotates r but leaves |r| alone
    res0 = solve_reflection(pc_table, E30)
    res1 = solve_reflection(pc_table, E30, SolveOptions(phase_origin=1.234))
    assert abs(res1.r) == pytest.approx(abs(res0.r), abs=1e-10)
    assert res1.r != res0.r


def test_boundary_robustness(silica_table):
    res = solve_reflection(silica_table, E30)
    res_half = solve_reflection(silica_table, E30,
                                SolveOptions(z_start=res.z_start / 2.0))
    res_far = solve_reflection(
        silica_table, E30, SolveOptions(z_end_min=min(res.z_end * 2.0,
                                                      silica_table.z_max / 3)))
    assert res_half.probability == pytest.approx(res.probability, abs=1e-4)
    assert res_far.probability == pytest.approx(res.probability, abs=1e-4)


@pytest.mark.parametrize("height", [0.3, 1.0])
def test_phase_reference_does_not_depend_on_the_end(pc_table, silica_table,
                                                   height):
    # r is referenced to the Q-selected z_end_min, so moving the end of the
    # solve must leave complex r alone, not just |r|: far out each step
    # advances 2 phi by pi, and r referenced to z_end flips sign with the
    # parity of the step count
    energy = CONSTANTS.energy_au_from_height(height)
    for table in (pc_table, silica_table):
        res = solve_reflection(table, energy)
        far = solve_reflection(table, energy, SolveOptions(
            z_end_min=min(2.0 * res.z_end, table.z_max / 3.0)))
        assert far.z_end > res.z_end
        assert abs(far.r - res.r) <= 1e-6 * abs(res.r)


@pytest.mark.parametrize("z", [1e-3, 1e-2, 0.1])
def test_launch_matches_the_exact_c3_absorbing_wave(pure_c3_table, z):
    # For V = -C3/z^3 at zero energy psi = sqrt(z) H1(x), x = 2 sqrt(b/z),
    # b = 2 m C3 / hbar^2, is the exact wave falling into the surface.  Its
    # log-derivative y gives sigma = (ip + y)/(ip - y); the second-order
    # launch misses it by the dropped term |Q'|/8p = 0.29 |Q|^{3/2}, the
    # first-order one (Q = 0) by |Q|/4.
    b = 2.0 * _M * 0.25
    x = 2.0 * math.sqrt(b / z)
    y = 1.0 / z - x / (2.0 * z) * hankel1(0, x) / hankel1(1, x)
    v, vp, _ = pure_c3_table.derivatives_scalar(z)
    p = math.sqrt(2.0 * _M * (E30 - v))
    exact = (1j * p + y) / (1j * p - y)
    q = abs(badlands_q(pure_c3_table, E30, z))
    assert abs(_launch_ratio(pure_c3_table, E30, z) - exact) <= 0.3 * q**1.5
    beta = -_M * vp / (2.0 * p**3)
    first_order = -beta / (2j + beta)
    assert abs(first_order - exact) == pytest.approx(q / 4.0, rel=0.01)


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
    h = 0.05
    e = CONSTANTS.energy_au_from_height(h)
    by_h = reflection_sweep(pc_table, heights_m=[h])
    by_e = reflection_sweep(pc_table, energies_au=[e])
    assert by_h[0].result.r == by_e[0].result.r


def test_sweep_input_validation(pc_table):
    with pytest.raises(ValueError):
        reflection_sweep(pc_table)
    with pytest.raises(ValueError):
        reflection_sweep(pc_table, energies_au=[1e-9], heights_m=[0.1])


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
