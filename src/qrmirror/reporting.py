"""CSV and JSON writers with deterministic formatting.

Each report builds its columns and raw rows once, in its ``*_json``
function, which returns them as they are.  The matching ``*_csv`` writer
formats those same rows through ``_write_csv``: strings as they are, other
values as ``%.10e`` and a missing value as the report's placeholder (``nan``
in a sweep, ``n/a`` in a comparison).  The comparison cells are themselves
the rows of both formats.  Identical inputs produce byte-identical files
apart from the timestamp comment, which ``timestamp=False`` suppresses.
Column sets are part of the external interface and must not drift.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from pathlib import Path

from .constants import CONSTANTS

SCHEMA_VERSION = 2

_CELL_COLUMNS = ("target", "row", "quantity", "computed", "reference",
                 "tolerance", "status", "note")


def _write_csv(path, timestamp: bool, columns, rows, head=(), tail=(),
               missing: str = "n/a") -> None:
    """Comment lines ``head``, the header, the formatted rows, then ``tail``.

    A cell holding a comma or a quote is quoted, so every row parses to as
    many cells as the header has."""
    def cell(x) -> str:
        if x is None:
            return missing
        return x if isinstance(x, str) else f"{x:.10e}"

    text = io.StringIO()
    if timestamp:
        text.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
    text.writelines(f"{line}\n" for line in head)
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(map(cell, row) for row in rows)
    text.writelines(f"{line}\n" for line in tail)
    Path(path).write_text(text.getvalue())


def potential_table_json(table) -> dict:
    eh = CONSTANTS.hartree_neV
    nm = CONSTANTS.bohr_nm
    fit = {"near_exponent": table.near_exponent,
           "far_exponent": table.far_exponent}
    for power, value in ((3, table.c3), (4, table.c4), (5, table.c5)):
        fit[f"C{power}_Eh_a0{power}"] = value
        fit[f"C{power}_neV_nm{power}"] = (
            None if value is None else value * eh * nm**power)
    return {
        "schema_version": SCHEMA_VERSION,
        "mirror": table.label,
        "fit": fit,
        "columns": ["z_a0", "z_nm", "V_Eh", "V_neV", "V_over_Vstar"],
        "rows": [[z, z * nm, v, v * eh, float(q)] for z, v, q
                 in zip(table.z, table.V, table.ratio_to_retarded())],
    }


def potential_table_csv(table, path, timestamp: bool = True) -> None:
    """The table with its fit coefficients, in both unit systems, as
    comment lines."""
    out = potential_table_json(table)
    fit = out["fit"]
    head = [f"# mirror: {out['mirror']}"]
    for p in (3, 4, 5):
        eh_key, nev_key = f"C{p}_Eh_a0{p}", f"C{p}_neV_nm{p}"
        if fit[eh_key] is not None:
            head.append(f"# {eh_key} = {fit[eh_key]:.6e} ; "
                        f"{nev_key} = {fit[nev_key]:.6e}")
    _write_csv(path, timestamp, out["columns"], out["rows"], head=head)


def sweep_json(points) -> dict:
    rows = []
    errors = []
    for pt in points:
        h, e_nev = pt.height_m, pt.energy_au * CONSTANTS.hartree_neV
        r = pt.result
        if r is None:
            rows.append([h, e_nev, None, None, None, None, None])
            errors.append({"h_m": h, "error": pt.error})
        else:
            rows.append([h, e_nev, r.probability, r.loss,
                         r.r.real, r.r.imag, r.flux_drift])
    return {
        "schema_version": SCHEMA_VERSION,
        "columns": ["h_m", "E_neV", "refl_prob", "loss",
                    "re_r", "im_r", "flux_drift"],
        "rows": rows,
        "errors": errors,
    }


def sweep_csv(points, path, timestamp: bool = True) -> None:
    """Failed points get ``nan`` cells and an error comment at the end."""
    out = sweep_json(points)
    tail = [f"# error at h_m={e['h_m']:.6e}: {e['error']}"
            for e in out["errors"]]
    _write_csv(path, timestamp, out["columns"], out["rows"], tail=tail,
               missing="nan")


def lifetime_json(rows) -> dict:
    """rows: iterable of (material, porosity or None, im_a_nm, lifetime_s,
    re_a_nm)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "columns": ["material", "porosity", "im_a_nm", "lifetime_s",
                    "re_a_nm"],
        "rows": [[m, p, a, t, r] for m, p, a, t, r in rows],
    }


def lifetime_csv(rows, path, timestamp: bool = True) -> None:
    """A bulk mirror's porosity is written empty, a porous one's as ``%g``."""
    out = lifetime_json(rows)
    _write_csv(path, timestamp, out["columns"],
               ([m, "" if p is None else f"{p:g}", a, t, r]
                for m, p, a, t, r in out["rows"]))


def badlands_json(z, profiles) -> dict:
    """profiles: dict height_m -> ``BadlandsProfile`` on z."""
    return {
        "schema_version": SCHEMA_VERSION,
        "peaks": {f"{h:g}": {"z_a0": p.peak_z, "Q": p.peak_q}
                  for h, p in profiles.items()},
        "columns": ["z_a0"] + [f"Q_h_m_{h:g}" for h in profiles],
        "rows": [[float(z[i])] + [float(p.q[i]) for p in profiles.values()]
                 for i in range(len(z))],
    }


def badlands_csv(z, profiles, path, timestamp: bool = True) -> None:
    out = badlands_json(z, profiles)
    head = [f"# peak h_m={h}: z_a0={p['z_a0']:.6e} Q={p['Q']:.6e}"
            for h, p in out["peaks"].items()]
    _write_csv(path, timestamp, out["columns"], out["rows"], head=head)


def comparison_json(rows) -> dict:
    """rows: the ``reproduce`` cells, dicts keyed by ``_CELL_COLUMNS``."""
    return {"schema_version": SCHEMA_VERSION, "cells": rows}


def comparison_csv(rows, path, timestamp: bool = True) -> None:
    _write_csv(path, timestamp, _CELL_COLUMNS,
               ([r.get(c, "") for c in _CELL_COLUMNS] for r in rows))


def write_json(payload: dict, path) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
