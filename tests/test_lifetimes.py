import math

import pytest

from qrmirror import lifetimes, reflection
from qrmirror.constants import CONSTANTS
from qrmirror.lifetimes import (
    _READ_OUTS_A0,
    ExtractionError,
    ScatteringLength,
    gqs_lifetime,
    lifetime_for_table,
    scattering_length,
)
from qrmirror.optics import load_builtin
from qrmirror.potential import MirrorSpec, PotentialTable, build_solver_table
from qrmirror.reflection import solve_reflection
from qrmirror.reporting import lifetime_csv

_M = CONSTANTS.mass_au
_ORACLE_HEIGHTS_M = (1e-7, 4e-7)
_TABLES = [*(f"{name}_table" for name in (
    "pc", "silicon", "silica", "slab", "graphene", "nanodiamond",
    "porous_silicon", "aerogel")), "pure_c4_table"]


def _threshold_law_im_a(table) -> float:
    """|Im a| from the threshold law 1 - |r|^2 = 4 k |Im a| + O(k^2): the
    losses of two solves at k and 2k (free falls from _ORACLE_HEIGHTS_M),
    Richardson-extrapolated to k -> 0.  An independent route to the
    zero-energy solve's Im a."""
    energies = [CONSTANTS.energy_au_from_height(h) for h in _ORACLE_HEIGHTS_M]
    k1, k2 = (math.sqrt(2.0 * _M * energy) for energy in energies)
    e1, e2 = (solve_reflection(table, energy).loss / (4.0 * k)
              for energy, k in zip(energies, (k1, k2)))
    return (k2 * e1 - k1 * e2) / (k2 - k1)


def test_scattering_length_sign_and_linearity(pc_table):
    sl = scattering_length(pc_table)
    assert sl.a.imag < 0
    assert sl.a.real < 0
    assert sl.source_energies_au == (0.0,)
    assert sl.linear_deviation < 0.05
    # |Im a| at the two read-outs agree to 5%
    e1, e2 = sl.estimates
    assert abs(e1 - e2) / max(e1, e2) < 0.05


def test_threshold_consistency(pc_table):
    # 1 - |r|^2 at the oracle's energies reproduces 4 k |Im a| within 5%
    sl = scattering_length(pc_table)
    for h in _ORACLE_HEIGHTS_M:
        energy = CONSTANTS.energy_au_from_height(h)
        res = solve_reflection(pc_table, energy)
        k = math.sqrt(2.0 * _M * energy)
        assert res.loss == pytest.approx(4.0 * k * abs(sl.a.imag), rel=0.05)


@pytest.mark.parametrize("name", _TABLES)
def test_im_a_matches_the_threshold_law(request, name):
    # the zero-energy solve against two finite-energy solves: at most
    # 3.8e-6 apart (pure C4), the O(k^2) left in the oracle
    table = request.getfixturevalue(name)
    im_a = -scattering_length(table).a.imag
    assert im_a == pytest.approx(_threshold_law_im_a(table), rel=1e-5)


@pytest.mark.parametrize("name", _TABLES)
def test_scattering_length_panels_are_converged(request, monkeypatch, name):
    # 4x the panels moves Im a by at most 8.5e-8 of |a| and Re a by at most
    # 2.1e-6 of |a| (both aerogel): at the 1e6 a0 read-out psi' is a small
    # difference of WKB amplitudes of size 1e3-2e4, and 16x the panels
    # moves Re a as much again
    table = request.getfixturevalue(name)
    sl = scattering_length(table)
    monkeypatch.setattr(reflection, "_PHASE_STEP_FRAC",
                        reflection._PHASE_STEP_FRAC / 4.0)
    monkeypatch.setattr(reflection, "_Z_STEP_FRAC",
                        reflection._Z_STEP_FRAC / 4.0)
    fine = scattering_length(table)
    assert abs(fine.a.imag - sl.a.imag) <= 1e-6 * abs(fine.a)
    assert abs(fine.a - sl.a) <= 5e-6 * abs(fine.a)


@pytest.mark.parametrize("name", _TABLES[:8])
def test_zero_energy_march_conserves_flux(request, monkeypatch, name):
    # |c-|^2 - |c+|^2 = 1 holds at E = 0 as at any energy: checked after
    # every panel of the march that scattering_length runs, from its launch
    # to the last read-out, by replaying the transfer matrices it applied
    # (largest drift 1.8e-7, aerogel)
    table = request.getfixturevalue(name)
    transfer, march = reflection._transfer, lifetimes._march
    blocks, launches, reads = [], [], []

    def recording_transfer(*args):
        blocks.append(transfer(*args))
        return blocks[-1]

    def recording_march(table, energy, z, sigma, stops):
        launches.append(sigma)
        for read in march(table, energy, z, sigma, stops):
            reads.append((read, len(blocks)))
            yield read

    monkeypatch.setattr(reflection, "_transfer", recording_transfer)
    monkeypatch.setattr(lifetimes, "_march", recording_march)
    scattering_length(table)
    (sigma,) = launches
    cm = 1.0 / math.sqrt(1.0 - abs(sigma) ** 2)
    cp = sigma * cm
    states = []
    for *matrix, _ in blocks:
        for a, b, c, d in zip(*matrix):
            cp, cm = a * cp + b * cm, c * cp + d * cm
            drift = abs(abs(cm) ** 2 - abs(cp) ** 2 - 1.0)
            assert drift <= reflection._FLUX_TOL
        states.append((cp, cm))
    assert [read[0] for read, _ in reads] == list(_READ_OUTS_A0)
    for (_, cp, cm, _, _), n in reads:
        assert (cp, cm) == states[n - 1]


# Re a of the registry mirrors (nm) from an independent E = 0 solve:
# scipy's DOP853 on (psi, psi') at rtol 1e-11, read at 1e7 a0
_RE_A_NM = {"pc": -2.584, "silicon": -5.081, "silica": -4.326, "slab": 0.086,
            "graphene": -0.784, "nanodiamond": -2.412,
            "porous_silicon": -2.783, "aerogel": -0.855}


@pytest.mark.parametrize("name", _RE_A_NM)
def test_registry_re_a(request, name):
    sl = scattering_length(request.getfixturevalue(f"{name}_table"))
    assert sl.re_a_nm == pytest.approx(_RE_A_NM[name], rel=0.01)


def test_pc_lifetime(pc_table):
    lt = gqs_lifetime(scattering_length(pc_table), "perfect conductor")
    assert lt.tau_s == pytest.approx(0.11, rel=0.20)


def test_silica_lifetime(silica_table):
    lt = lifetime_for_table(silica_table)
    assert lt.tau_s == pytest.approx(0.22, rel=0.25)


def test_aerogel_lifetime(aerogel_table):
    lt = lifetime_for_table(aerogel_table)
    assert lt.tau_s == pytest.approx(4.6, rel=0.40)


def test_null_table_gives_infinite_lifetime_sentinel():
    sl = scattering_length(PotentialTable.null())
    assert sl.a == 0.0
    lt = gqs_lifetime(sl, "free space")
    assert math.isinf(lt.tau_s)


def test_positive_im_a_rejected():
    bad = ScatteringLength(a=complex(0.0, +1.0), source_energies_au=(0, 0),
                           estimates=(0, 0), linear_deviation=0.0)
    with pytest.raises(ValueError):
        gqs_lifetime(bad)


def test_extraction_fails_on_a_table_ending_before_the_read_outs(run_main):
    # a is read at 1e5 and 1e6 a0
    short = PotentialTable.from_power_law(73.6, 4.0, 1e-8, 5e5, 400)
    with pytest.raises(ExtractionError, match="read-outs"):
        scattering_length(short)
    cp = run_main("lifetime", "--mirror", "perfect_conductor",
                  "--z-max-a0", "5e5", "--points", "400")
    assert cp.returncode == 1
    assert cp.stderr.startswith("numerical failure: ") and \
        "read-outs" in cp.stderr, cp.stderr


def test_extraction_fails_where_a_does_not_settle(pure_c3_table):
    # -C3/z^3 has no finite scattering length: |Im a| still moves by 1.7e-2
    # between the read-outs
    with pytest.raises(ExtractionError, match="did not settle"):
        scattering_length(pure_c3_table)


def test_extraction_fails_on_a_table_starting_past_the_launch(run_main):
    # at E = 0 the WKB wave of the perfect conductor is not exact at 10 a0
    cp = run_main("lifetime", "--mirror", "perfect_conductor",
                  "--z-min-a0", "10")
    assert cp.returncode == 1
    assert cp.stderr.startswith("numerical failure: ") and \
        "near edge" in cp.stderr, cp.stderr


def test_porosity_monotonicity():
    # fixed host, increasing vacuum fraction: weaker potential, longer tau
    silica = load_builtin("silica")
    taus = []
    for f in (0.90, 0.98):
        table = build_solver_table(MirrorSpec.porous(silica, f), n_points=360)
        taus.append(lifetime_for_table(table).tau_s)
    assert taus[1] > taus[0]


def test_lifetime_csv_format(pc_table, tmp_path):
    lt = lifetime_for_table(pc_table)
    out = tmp_path / "life.csv"
    lifetime_csv([("perfect conductor", None, abs(lt.scattering.im_a_nm),
                   lt.tau_s, lt.scattering.re_a_nm)], out, timestamp=False)
    lines = out.read_text().splitlines()
    assert lines[0] == "material,porosity,im_a_nm,lifetime_s,re_a_nm"
    fields = lines[1].split(",")
    assert fields[0] == "perfect conductor"
    assert fields[1] == ""
    assert float(fields[3]) == pytest.approx(lt.tau_s)
