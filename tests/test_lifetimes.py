import math

import pytest

from qrmirror import lifetimes
from qrmirror.constants import CONSTANTS
from qrmirror.lifetimes import (
    ExtractionError,
    ScatteringLength,
    gqs_lifetime,
    lifetime_for_table,
    scattering_length,
)
from qrmirror.optics import load_builtin
from qrmirror.potential import MirrorSpec, PotentialTable, build_solver_table
from qrmirror.reporting import lifetime_csv

_M = CONSTANTS.mass_au


def test_scattering_length_sign_and_linearity(pc_table):
    sl = scattering_length(pc_table)
    assert sl.a.imag < 0
    assert sl.a.real == 0.0
    assert sl.linear_deviation < 0.05
    # the two raw estimates agree with the threshold law to 5%
    e1, e2 = sl.estimates
    assert abs(e1 - e2) / max(e1, e2) < 0.05


def test_threshold_consistency(pc_table):
    # 1 - |r|^2 at the extraction energies reproduces 4 k |Im a| within 5%
    from qrmirror.reflection import solve_reflection
    sl = scattering_length(pc_table)
    for energy in sl.source_energies_au:
        res = solve_reflection(pc_table, energy)
        k = math.sqrt(2.0 * _M * energy)
        assert res.loss == pytest.approx(4.0 * k * abs(sl.a.imag), rel=0.05)


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


def test_extraction_fails_outside_linear_regime(pc_table, monkeypatch):
    # heights so large that 4 k |Im a| is O(1): the two estimates fail the
    # linearity check
    monkeypatch.setattr(lifetimes, "_HEIGHTS_M", (0.05, 0.20))
    with pytest.raises(ExtractionError):
        scattering_length(pc_table)


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
                   lt.tau_s)], out, timestamp=False)
    lines = out.read_text().splitlines()
    assert lines[0] == "material,porosity,im_a_nm,lifetime_s"
    fields = lines[1].split(",")
    assert fields[0] == "perfect conductor"
    assert fields[1] == ""
    assert float(fields[3]) == pytest.approx(lt.tau_s)
