"""Every report writes the same columns and cells as CSV and as JSON.

Each report is written both ways from cheap inputs; the CSV is parsed back
and every cell, comment line included, is checked against the JSON value.
A missing value is ``None`` in JSON and the report's placeholder in CSV.
"""

import csv
import json

import numpy as np
import pytest

from qrmirror import cli, reporting
from qrmirror.constants import CONSTANTS
from qrmirror.potential import PotentialTable, retarded_reference
from qrmirror.reflection import badlands_profile, reflection_sweep


@pytest.fixture(scope="module")
def c4_table():
    """Clipped -C4/z^4 table: solves take a few hundred steps, and the far
    WKB-exact region of the lowest energies lies beyond its end."""
    return PotentialTable.from_power_law(73.6, 4.0, 1e-4, 1e5, 120)


def _both(tmp_path, write_csv, make_json, *data):
    """(comment lines, parsed CSV rows, JSON payload as read back)."""
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    write_csv(*data, csv_path, timestamp=False)
    reporting.write_json(make_json(*data), json_path)
    lines = csv_path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    return comments, rows, json.loads(json_path.read_text())


def _agree(text: str, value, missing: str) -> bool:
    if value is None:
        return text == missing
    if isinstance(value, str):
        return text == value
    return float(text) == pytest.approx(value, rel=1e-10, abs=0.0)


def _assert_rows_agree(rows, payload, missing=""):
    header, *body = rows
    assert header == payload["columns"]
    assert len(body) == len(payload["rows"])
    for line, values in zip(body, payload["rows"]):
        assert len(line) == len(values)
        for text, value in zip(line, values):
            assert _agree(text, value, missing), (text, value)


@pytest.mark.parametrize("coefficient, exponent", [(0.25, 3.0), (73.6, 4.0)])
def test_potential_table(tmp_path, coefficient, exponent):
    table = PotentialTable.from_power_law(coefficient, exponent, 1e-2, 1e6, 64)
    comments, rows, payload = _both(tmp_path, reporting.potential_table_csv,
                                    reporting.potential_table_json, table)
    _assert_rows_agree(rows, payload)
    assert comments[0] == f"# mirror: {payload['mirror']}"
    fit = payload["fit"]
    written = {}
    for line in comments[1:]:
        for part in line[2:].split(";"):
            key, _, value = part.partition("=")
            written[key.strip()] = float(value)
    expected = {key: value for key, value in fit.items()
                if key[0] == "C" and value is not None}
    assert set(written) == set(expected)
    for key, value in expected.items():
        assert written[key] == pytest.approx(value, rel=1e-6)
    assert fit[f"C{exponent:g}_Eh_a0{exponent:g}"] == pytest.approx(
        coefficient, rel=1e-9)


def test_potential_ratio_is_its_own_rows_v_over_vstar(silica_table):
    # V_over_Vstar is the row's own V_Eh over -C4*/z^4, bit for bit
    rows = reporting.potential_table_json(silica_table)["rows"]
    z, v, ratio = (np.array([row[k] for row in rows]) for k in (0, 2, 4))
    assert ratio.tobytes() == (v / retarded_reference(z)).tobytes()


def test_sweep_with_a_failed_point(tmp_path, c4_table):
    points = reflection_sweep(c4_table, [0.3, 1e-8, 0.1])
    assert [p.result is None for p in points] == [False, True, False]
    comments, rows, payload = _both(tmp_path, reporting.sweep_csv,
                                    reporting.sweep_json, points)
    _assert_rows_agree(rows, payload, missing="nan")
    assert payload["rows"][1][2:] == [None] * 5
    assert [row[0] for row in payload["rows"]] == [0.3, 1e-8, 0.1]
    assert comments == [f"# error at h_m={e['h_m']:.6e}: {e['error']}"
                        for e in payload["errors"]]
    assert [e["h_m"] for e in payload["errors"]] == [1e-8]


def test_lifetime_rows(tmp_path):
    data = [("bulk silica", None, 14.59, 0.2202, -4.327),
            ("porous silica f=0.98", 0.98, 0.6788, 4.7335, -0.8552)]
    _, rows, payload = _both(tmp_path, reporting.lifetime_csv,
                             reporting.lifetime_json, data)
    _assert_rows_agree(rows, payload, missing="")
    assert rows[2][1] == "0.98"


def test_badlands_profiles(tmp_path, c4_table):
    profiles = {h: badlands_profile(c4_table,
                                    CONSTANTS.energy_au_from_height(h))
                for h in (0.1, 0.3)}
    comments, rows, payload = _both(tmp_path, reporting.badlands_csv,
                                    reporting.badlands_json, c4_table.z,
                                    profiles)
    _assert_rows_agree(rows, payload)
    assert len(comments) == len(payload["peaks"]) == 2
    for line, (h, peak), prof in zip(comments, payload["peaks"].items(),
                                     profiles.values(), strict=True):
        assert line == (f"# peak h_m={h}: z_a0={peak['z_a0']:.6e} "
                        f"Q={peak['Q']:.6e}")
        assert (peak["z_a0"], peak["Q"]) == (prof.peak_z, prof.peak_q)
    assert [row[1:] for row in payload["rows"]] == [
        list(q) for q in zip(*(p.q.tolist() for p in profiles.values()))]


def test_comparison_cells(tmp_path):
    refs = {"table2.pc.refl": (0.05, "rel", 0.1),
            "table2.pc.lifetime": (1.0, "abs", 0.01)}
    cells = [
        cli.check_against_reference("table2.pc.refl", 0.052, refs),
        cli.check_against_reference("table2.pc.lifetime", 2.0, refs),
        cli._cell("table2.aerogel.refl", None, None, "", "n/a",
                  "effective medium not valid at this energy"),
        # notes with commas, as fig1 and fig2 write them
        cli._check_relation("fig1.right.reflection_ordering", True,
                            "PC<Si<silica", "heights_m=[0.01, 0.03, 0.1]"),
        cli._check_relation("fig2.right.peak_height_vs_energy", False,
                            "decreasing", "h=10,30,50cm"),
    ]
    _, rows, payload = _both(tmp_path, reporting.comparison_csv,
                             reporting.comparison_json, cells)
    header, *body = rows
    assert [c["status"] for c in payload["cells"]] == [
        "pass", "fail", "n/a", "pass", "fail"]
    assert len(body) == len(payload["cells"])
    for line, cell in zip(body, payload["cells"]):
        assert set(cell) == set(header)
        assert len(line) == len(header)
        for text, column in zip(line, header):
            assert _agree(text, cell[column], "n/a"), (column, text)
