"""Cross-validation of the coupled-amplitude solver against the independent
Numerov wavefunction oracle, plus the exact zero-energy result for the pure
inverse-fourth-power potential.
"""

import cmath
import gc
import math
import random
import sys
import threading
import tracemalloc
import weakref

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


@pytest.fixture
def fresh_marches(monkeypatch):
    """An empty record of zero-energy march states for this test."""
    monkeypatch.setattr(numerov, "_MARCHES", weakref.WeakKeyDictionary())
    return numerov._MARCHES


def _cold(table, energy, z_start, z_end):
    """The oracle marching from its seed: nothing recorded to resume from."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerov, "_MARCHES", weakref.WeakKeyDictionary())
        return numerov_reflection(table, energy, z_start, z_end)


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
    phi = numerov._phase_between(table, energy, z_start, z_start + h)[0]
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
    dphi = numerov._phase_between(table, energy, za, zb)[0]
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
    # with the same arithmetic as the default blocks, and so do blocks of
    # eight chunks, the default before blocks of sixteen
    energy = CONSTANTS.energy_au_from_height(height_m)
    res = solve_reflection(pc_table, energy)
    runs = []
    for chunks in (numerov._BLOCK_CHUNKS, 8, 1, 10_000):
        monkeypatch.setattr(numerov, "_BLOCK_CHUNKS", chunks)
        runs.append(_cold(pc_table, energy, res.z_start, res.z_end))
    assert runs[1:] == runs[:1] * 3


def test_oracle_self_convergence(pure_c4_table, monkeypatch):
    res = solve_reflection(pure_c4_table, E30)
    monkeypatch.setattr(numerov, "_POINTS_PER_WAVELENGTH", 60)
    coarse = _cold(pure_c4_table, E30, res.z_start, res.z_end)
    monkeypatch.setattr(numerov, "_POINTS_PER_WAVELENGTH", 200)
    fine = _cold(pure_c4_table, E30, res.z_start, res.z_end)
    assert coarse.r_magnitude == pytest.approx(fine.r_magnitude, abs=2e-5)


_REGISTRY = ["perfect_conductor", "silicon", "silica", "silica_slab_5nm",
             "graphene", "nanodiamond_p95", "porous_silicon_p95",
             "silica_aerogel_p98"]


@pytest.mark.parametrize("name", _REGISTRY + ["pure_c3", "pure_c4"])
def test_resumed_march_equals_the_cold_march(request, registry_table, name,
                                             fresh_marches):
    # below 2^-54 |V| the energy drops out of E - V, so a march resumed
    # from a state recorded at another energy is the cold march bit for
    # bit; shuffled heights make later calls resume, extend the record or
    # stop short of it, and windows ending anywhere from the near-surface
    # stretch to the table end check that a resumed window never cuts a
    # recorded chunk short
    if name.startswith("pure_"):
        table = request.getfixturevalue(name + "_table")
    else:
        table = registry_table(name)
    rng = random.Random(name)
    heights = [1e-7, 1e-5, 1e-3, 0.0148, 0.30, 1.0]
    rng.shuffle(heights)
    z_start = solve_reflection(table, E30).z_start
    for height in heights:
        energy = CONSTANTS.energy_au_from_height(height)
        if height < 1e-4:   # far out, few wavelengths: march to the end
            z_end = table.z_max
        else:
            z_end = z_start * (1e5 / z_start) ** rng.uniform(0.05, 1)
        warm = numerov_reflection(table, energy, z_start, z_end)
        assert warm == _cold(table, energy, z_start, z_end), height
    recorded = fresh_marches.get(table, {}).get(
        (z_start, numerov._POINTS_PER_WAVELENGTH), ())
    # the -C4/z^4 window starts at 17 a0, where no height's E is negligible
    assert (len(recorded) > 0) == (name != "pure_c4")
    # the resume scan relies on z_last rising and the bound falling
    z_lasts = [state.z_last for state in recorded]
    bounds = [state.bound for state in recorded]
    assert z_lasts == sorted(set(z_lasts))
    assert bounds == sorted(bounds, reverse=True)
    if recorded:
        # a window ending inside the record resumes short of its end and
        # leaves the record as it is
        z_end = recorded[len(recorded) // 2].z_last
        energy = CONSTANTS.energy_au_from_height(1e-7)
        warm = numerov_reflection(table, energy, z_start, z_end)
        assert warm == _cold(table, energy, z_start, z_end)
        assert fresh_marches[table][
            z_start, numerov._POINTS_PER_WAVELENGTH] is recorded


def test_no_state_at_the_table_end(fresh_marches):
    # a table that ends less than a step past a recorded block end stops
    # the march there: nothing follows that block, so its state is not
    # recorded, and a later call resumes from an earlier one
    ppw = numerov._POINTS_PER_WAVELENGTH
    tail = PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)
    e7 = CONSTANTS.energy_au_from_height(1e-7)
    numerov_reflection(tail, e7, 1e-4, 1e3)
    states = fresh_marches[tail][1e-4, ppw]
    state = states[len(states) // 2]
    z_max = state.z_last + 0.5 * state.h
    table = PotentialTable.from_power_law(0.25, 3.0, 1e-8, z_max, 480)
    assert numerov_reflection(table, e7, 1e-4, z_max).z_end == state.z_last
    assert fresh_marches[table][1e-4, ppw][-1].z_last < state.z_last
    energy = CONSTANTS.energy_au_from_height(1e-6)
    assert (numerov_reflection(table, energy, 1e-4, z_max)
            == _cold(table, energy, 1e-4, z_max))


def _banded_solves(table, heights, monkeypatch):
    """Rows of each banded solve of the oracle's calls at ``heights`` on
    ``table``, one list per call, in order."""
    import scipy.linalg.lapack

    solve = scipy.linalg.lapack.dtbtrs
    calls = []

    def counting(ab, b, **kwargs):
        calls[-1].append(ab.shape[1])
        return solve(ab, b, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtbtrs", counting)
    for height in heights:
        energy = CONSTANTS.energy_au_from_height(height)
        res = solve_reflection(table, energy)
        calls.append([])
        numerov_reflection(table, energy, res.z_start, res.z_end)
    return calls


def test_later_energies_skip_the_shared_stretch(pc_table, fresh_marches,
                                                monkeypatch):
    # after one call at 30 cm, calls at other heights solve only the rows
    # past the near-surface stretch they share with it
    rows = [sum(call) for call in _banded_solves(
        pc_table, (0.30, 0.0148, 0.42), monkeypatch)]
    assert rows[0] > 200_000
    assert max(rows[1:]) <= 0.3 * rows[0], rows


def test_blocks_span_step_doublings(pc_table, fresh_marches, monkeypatch):
    # a block ends only after _BLOCK_CHUNKS chunks, a short chunk or the
    # end of the march, not where the step doubles: the cold march at 30 cm
    # solves the same rows in 33 solves (66 in blocks of eight chunks, 91
    # when every doubling ended a block), and the later calls in 6 and 7
    # (12 and 13 in blocks of eight, 34 and 32 cut at every doubling)
    cold, *later = _banded_solves(pc_table, (0.30, 0.0148, 0.42),
                                  monkeypatch)
    assert sum(cold) == 209_679
    assert len(cold) <= 36, len(cold)
    assert max(len(call) for call in later) <= 8, [len(c) for c in later]


def test_cold_march_memory(pc_table, fresh_marches):
    # a block's arrays grow with _BLOCK_CHUNKS: the cold march at 30 cm
    # peaks at about 0.8 MB in blocks of sixteen chunks (1.6 MB in 32)
    res = solve_reflection(pc_table, E30)
    tracemalloc.start()
    try:
        numerov_reflection(pc_table, E30, res.z_start, res.z_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6, peak


def test_record_is_per_points_per_wavelength(pc_table, fresh_marches,
                                             monkeypatch):
    # states recorded at 100 points per wavelength are another grid: a
    # 60-point march must not resume from them
    res = solve_reflection(pc_table, E30)
    numerov_reflection(pc_table, E30, res.z_start, res.z_end)
    energy = CONSTANTS.energy_au_from_height(0.42)
    monkeypatch.setattr(numerov, "_POINTS_PER_WAVELENGTH", 60)
    coarse = numerov_reflection(pc_table, energy, res.z_start, res.z_end)
    assert coarse == _cold(pc_table, energy, res.z_start, res.z_end)


def test_record_goes_with_its_table(fresh_marches):
    # the record holds no reference to its table, and its seeds own their
    # two rows instead of pinning a block's wavefunction
    table = PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)
    for height in (0.30, 1e-7):
        energy = CONSTANTS.energy_au_from_height(height)
        numerov_reflection(table, energy, 1e-4, 1e3)
    states = fresh_marches[table][1e-4, numerov._POINTS_PER_WAVELENGTH]
    assert len(states) > 10
    assert len({state.h for state in states}) > 1     # doubled seeds too
    for state in states:
        assert state.seed.shape == (2, 2)
        assert state.seed.base is None and state.seed.flags.owndata
    gone = weakref.ref(table)
    del table
    gc.collect()
    assert gone() is None
    assert len(fresh_marches) == 0


def test_threads_sharing_a_table(pc_table, fresh_marches):
    # three threads record and resume on one table at once, with a short
    # switch interval: each result is the cold one, and the record left
    # behind is a prefix of the one a lone zero-energy march makes
    windows = {}
    for height in (0.30, 1e-7, 0.42):
        energy = CONSTANTS.energy_au_from_height(height)
        res = solve_reflection(pc_table, energy)
        windows[height] = (energy, res.z_start, res.z_end)
    cold = {h: _cold(pc_table, *w) for h, w in windows.items()}
    key = (windows[1e-7][1], numerov._POINTS_PER_WAVELENGTH)
    numerov_reflection(pc_table, *windows[1e-7])
    lone = fresh_marches[pc_table][key]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            fresh_marches.clear()
            start = threading.Barrier(len(windows))
            results = {}

            def run(height):
                start.wait(timeout=60)
                results[height] = numerov_reflection(pc_table,
                                                     *windows[height])

            threads = [threading.Thread(target=run, args=(h,))
                       for h in windows]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert results == cold
            record = fresh_marches[pc_table][key]
            assert 0 < len(record) <= len(lone)
            for got, want in zip(record, lone):
                assert got[:2] + got[3:] == want[:2] + want[3:]
                assert np.array_equal(got.seed, want.seed)
    finally:
        sys.setswitchinterval(interval)


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
