"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line per criterion (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines for passing criteria too).

Reference values and tolerances are data, loaded from the shipped
``materials/tolerances`` file.
"""

import math
import time

import numpy as np
import pytest

from qrmirror import reflection
from qrmirror.cli import _mirror_registry, load_tolerances
from qrmirror.constants import CONSTANTS
from qrmirror.lifetimes import gqs_lifetime, lifetime_for_table, scattering_length
from qrmirror.numerov import numerov_reflection
from qrmirror.optics import load_builtin
from qrmirror.potential import MirrorSpec, PotentialTable, build_solver_table
from qrmirror.reflection import (
    badlands_profile,
    badlands_q,
    reflection_sweep,
    solve_reflection,
)

_M = CONSTANTS.mass_au
E30 = CONSTANTS.energy_au_from_height(0.30)
REFS = load_tolerances()


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    line = f"CRITERION {number} ({description}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _within(key: str, value: float) -> tuple[bool, str]:
    ref, kind, tol = REFS[key]
    if kind == "rel":
        ok = abs(value - ref) <= tol * abs(ref)
    else:
        ok = abs(value - ref) <= tol
    return ok, f"{key.split('.', 1)[1]}={value:.4g} vs {ref:g} ({kind} {tol:g})"


@pytest.fixture(scope="session")
def table2_tables(registry_table):
    # the rows of `reproduce table2`, in its order
    return {name: registry_table(name) for name in _mirror_registry()}


@pytest.fixture(scope="session")
def table2_reflections(table2_tables):
    names = ("perfect_conductor", "silicon", "silica", "silica_slab_5nm",
             "graphene")
    return {n: solve_reflection(table2_tables[n], E30) for n in names}


@pytest.fixture(scope="session")
def table2_lifetimes(table2_tables):
    return {n: gqs_lifetime(scattering_length(t), n)
            for n, t in table2_tables.items()}


# -- criterion 1: perfect-conductor anchors ----------------------------------


def test_criterion_1_pc_anchors(pc_table):
    ok3, d3 = _within("table1.perfect_conductor.c3", pc_table.c3)
    ok4, d4 = _within("table1.perfect_conductor.c4", pc_table.c4)
    _criterion(1, "perfect-conductor C3/C4 anchors", ok3 and ok4,
               f"{d3}; {d4}")


# -- criterion 2: silicon and silica coefficients ----------------------------


def test_criterion_2_bulk_coefficients(silicon_table, silica_table):
    checks = [
        _within("table1.silicon.c3", silicon_table.c3),
        _within("table1.silicon.c4", silicon_table.c4),
        _within("table1.silica.c3", silica_table.c3),
        _within("table1.silica.c4", silica_table.c4),
    ]
    _criterion(2, "bulk silicon/silica C3/C4",
               all(ok for ok, _ in checks),
               "; ".join(d for _, d in checks))


# -- criterion 3: reflection probabilities at E = mg x 30 cm -----------------


def test_criterion_3_reflection_probabilities(table2_reflections):
    checks = []
    for name, res in table2_reflections.items():
        checks.append(_within(f"table2.{name}.refl", res.probability))
    _criterion(3, "reflection probabilities at 30 cm",
               all(ok for ok, _ in checks),
               "; ".join(d for _, d in checks))


# -- criterion 4: lifetimes ---------------------------------------------------


def test_criterion_4_lifetimes(table2_lifetimes):
    checks = []
    for name, lt in table2_lifetimes.items():
        checks.append(_within(f"table2.{name}.lifetime", lt.tau_s))
    _criterion(4, "gravitational-state lifetimes",
               all(ok for ok, _ in checks),
               "; ".join(d for _, d in checks))


# -- criterion 5: ordering properties ----------------------------------------


def test_criterion_5_orderings(pc_table, silicon_table, silica_table,
                               table2_lifetimes):
    heights = [0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0]
    probs = {}
    for name, tab in (("pc", pc_table), ("si", silicon_table),
                      ("silica", silica_table)):
        pts = reflection_sweep(tab, heights_m=heights)
        probs[name] = [p.result.probability for p in pts]
    refl_ok = all(probs["pc"][i] < probs["si"][i] < probs["silica"][i]
                  for i in range(len(heights)))

    z = np.geomspace(1e-6, 1e6, 300)
    pot_ok = bool(
        np.all(np.abs(pc_table.potential(z)) >= np.abs(silicon_table.potential(z)))
        and np.all(np.abs(silicon_table.potential(z))
                   >= np.abs(silica_table.potential(z)))
    )

    column = ["perfect_conductor", "silicon", "silica", "silica_slab_5nm",
              "graphene", "nanodiamond_p95", "porous_silicon_p95",
              "silica_aerogel_p98"]
    taus = [table2_lifetimes[n].tau_s for n in column]
    tau_ok = all(taus[i] < taus[i + 1] for i in range(len(taus) - 1))

    _criterion(5, "reflection/potential/lifetime orderings",
               refl_ok and pot_ok and tau_ok,
               f"|r|^2 ordering={refl_ok}, |V| ordering={pot_ok}, "
               f"tau column={['%.3g' % t for t in taus]}")


# -- criterion 6: oracle equivalence ------------------------------------------


def test_criterion_6_oracle_equivalence(pure_c3_table, pure_c4_table,
                                        table2_tables, table2_reflections):
    worst = 0.0
    details = []
    cases = [("pure_c3", pure_c3_table, None), ("pure_c4", pure_c4_table, None)]
    cases += [(n, table2_tables[n], table2_reflections[n])
              for n in table2_reflections]
    for name, table, res in cases:
        if res is None:
            res = solve_reflection(table, E30)
        oracle = numerov_reflection(table, E30, res.z_start, res.z_end)
        diff = abs(abs(res.r) - oracle.r_magnitude)
        worst = max(worst, diff)
        details.append(f"{name}:{diff:.1e}")
    _criterion(6, "amplitude vs Numerov oracle |r| to 1e-4", worst < 1e-4,
               ", ".join(details))


# -- criterion 7: flux conservation, phase reference, boundary robustness ----


def test_criterion_7_solver_invariants(pc_table, silica_table,
                                       table2_reflections, landings_beyond,
                                       monkeypatch):
    flux_ok = all(res.flux_drift < 1e-6 for res in table2_reflections.values())

    # boundary: a 10x tighter |Q| bound moves z_start and the launch point
    # inward and z_end_min outward
    base = solve_reflection(silica_table, E30)
    with monkeypatch.context() as m:
        m.setattr(reflection, "_EDGE_TOL", 1e-9)
        tight = solve_reflection(silica_table, E30)
    robust_ok = (tight.z_start < base.z_start
                 and abs(tight.probability - base.probability) < 1e-4)

    # phase reference: landing at every grid point in (z_l, 10 z_l] instead
    # of z_l; r, referenced to z_end_min, must not move
    r, landed = landings_beyond(silica_table, E30)
    phase_ok = (len(landed) > 0
                and all(abs(r_far - r) <= 1e-8 * abs(r) for r_far in landed))

    pc = solve_reflection(pc_table, E30)
    edge_ok = (abs(badlands_q(pc_table, E30, pc.z_start)) < 1e-8
               and abs(badlands_q(pc_table, E30, pc.z_end)) < 1e-8)

    _criterion(7, "flux/phase-reference/boundary invariants",
               flux_ok and phase_ok and robust_ok and edge_ok,
               f"flux<1e-6={flux_ok}, r z_end-invariant 1e-8={phase_ok}, "
               f"boundary 1e-4={robust_ok}, |Q|<1e-8 endpoints={edge_ok}")


# -- criterion 8: threshold law ------------------------------------------------


def test_criterion_8_threshold_law(pc_table, silica_table):
    ok_all = True
    details = []
    for name, table in (("pc", pc_table), ("silica", silica_table)):
        heights = np.geomspace(1e-8, 1e-6, 9)   # two lowest sampled decades
        pts = reflection_sweep(table, heights_m=heights)
        losses = np.array([p.result.loss for p in pts])
        energies = np.array([p.energy_au for p in pts])
        const = losses / np.sqrt(energies)
        sqrt_ok = bool(np.all(np.abs(const / const.mean() - 1.0) < 0.05))
        # the proportionality constant is 4 |Im a| sqrt(2m)/hbar
        sl = scattering_length(table)
        predicted = 4.0 * abs(sl.a.imag) * math.sqrt(2.0 * _M)
        const_ok = abs(const.mean() / predicted - 1.0) < 0.05
        ok_all = ok_all and sqrt_ok and const_ok
        details.append(f"{name}: sqrtE={sqrt_ok}, "
                       f"const/(4|Im a|sqrt(2m))={const.mean() / predicted:.4f}")
    _criterion(8, "threshold law 1-|r|^2 = 4k|Im a|", ok_all,
               "; ".join(details))


# -- criterion 9: badlands structure ------------------------------------------


def test_criterion_9_badlands_structure(pc_table, silicon_table, silica_table,
                                        pure_c3_table):
    null_ok = bool(np.all(badlands_profile(PotentialTable.null(), E30).q == 0))

    z = np.geomspace(1e-6, 1e-3, 30)
    q = badlands_q(pure_c3_table, E30, z)
    linear_ok = bool(np.allclose(q, 3.0 * z / (32.0 * _M * 0.25), rtol=0.01))

    peak_ok = True
    for tab in (pc_table, silicon_table, silica_table):
        prof = badlands_profile(tab, E30)
        v = np.abs(tab.potential(tab.z))
        z_cross = tab.z[np.argmin(np.abs(v - E30))]
        peak_ok = peak_ok and 0.5 < prof.peak_z / z_cross < 2.0

    profs = [badlands_profile(pc_table, CONSTANTS.energy_au_from_height(h))
             for h in (0.10, 0.30, 0.50)]
    energy_ok = (profs[0].peak_q > profs[1].peak_q > profs[2].peak_q)

    e10 = CONSTANTS.energy_au_from_height(0.10)
    z_pc = badlands_profile(pc_table, e10).peak_z
    z_si = badlands_profile(silicon_table, e10).peak_z
    z_sil = badlands_profile(silica_table, e10).peak_z
    mirror_ok = z_pc > z_si > z_sil

    _criterion(9, "badlands structure", null_ok and linear_ok and peak_ok
               and energy_ok and mirror_ok,
               f"null={null_ok}, linear-law={linear_ok}, peak@|V|=E={peak_ok}, "
               f"height-vs-E={energy_ok}, surfaceward-for-weaker={mirror_ok}")


def test_weaker_mirrors_reflect_more_and_keep_atoms_longer(silica_table):
    # the paper's headline claim (Dufour et al., PRA 87, 012901 and 022506,
    # 2013): thinner slabs reflect more and hold the gravitational states
    # longer, a thick slab is the bulk, and more porous media hold them
    # longer whatever the host
    silica = load_builtin("silica")
    slabs = [build_solver_table(MirrorSpec.slab_nm(silica, d))
             for d in (1, 2, 5, 10, 20, 50)]
    probs = [solve_reflection(table, E30).probability for table in slabs]
    assert all(a > b for a, b in zip(probs, probs[1:])), probs
    taus = [lifetime_for_table(table).tau_s for table in slabs]
    assert all(a > b for a, b in zip(taus, taus[1:])), taus
    thick = build_solver_table(MirrorSpec.slab_nm(silica, 1000.0))
    assert solve_reflection(thick, E30).probability == pytest.approx(
        solve_reflection(silica_table, E30).probability, abs=1e-3)
    for host in ("silica", "silicon", "diamond"):
        model = load_builtin(host)
        taus = [lifetime_for_table(build_solver_table(MirrorSpec.porous(model, f)))
                .tau_s for f in (0.80, 0.90, 0.95, 0.98, 0.995)]
        assert all(a < b for a, b in zip(taus, taus[1:])), (host, taus)


# -- desk-scale performance gate ----------------------------------------------


def test_reproduce_tables_run_under_ten_minutes(run_main, tmp_path):
    start = time.perf_counter()
    for target in ("table1", "table2"):
        cp = run_main("reproduce", target,
                      "--out", str(tmp_path / f"{target}.csv"),
                      "--no-timestamp")
        assert cp.returncode == 0, cp.stderr + cp.stdout
    elapsed = time.perf_counter() - start
    text1 = (tmp_path / "table1.csv").read_text()
    text2 = (tmp_path / "table2.csv").read_text()
    assert ",fail," not in text1 and ",fail," not in text2
    na_rows = [ln for ln in text2.splitlines()
               if ln.split(",")[6:7] == ["n/a"]]
    assert len(na_rows) == 3   # porous reflection cells left blank
    assert "model-substituted" in text2
    print(f"reproduce table1 && table2: {elapsed:.0f}s", flush=True)
    assert elapsed < 600.0
