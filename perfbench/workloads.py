"""Set-up, timed unit and correctness checks of each workload.

Runs inside a child process that has ``src`` on its path.  Every call into
qrmirror goes through ``tracer.span`` so that it is counted as an operation
and, in a traced run, timed as a span of its layer.  The checks reuse only
tolerances that the repository already states: the shipped
``materials/tolerances`` cells (through ``cli.check_against_reference``),
the 2e-4 C3 anchor of ``tests/test_potential.py``, the 1e-4 Numerov
agreement of acceptance criterion 6 and the 1e-6 flux drift of criterion 7.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time

import numpy as np

from qrmirror import (
    CONSTANTS,
    MirrorSpec,
    PotentialTable,
    SheetModel,
    badlands_profile,
    build_solver_table,
    graphene_sheet,
    gqs_lifetime,
    lifetime_for_table,
    load_builtin,
    numerov_reflection,
    reporting,
    scattering_length,
    solve_reflection,
    vdw_coefficient_integral,
)
from qrmirror.cli import check_against_reference, load_tolerances

import reference
from spans import Tracer

C3_ANCHOR_TOL = 2e-4
NUMEROV_TOL = 1e-4
FLUX_TOL = 1e-6
E30 = CONSTANTS.energy_au_from_height(0.30)
QUERY_Z = np.geomspace(1.01e-8, 0.99e7, 20_000).tolist()


class Checks:
    """Named pass/fail results of one child."""

    def __init__(self):
        self.results: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})

    def cell(self, cell: dict) -> None:
        key = f"{cell['target']}.{cell['row']}.{cell['quantity']}"
        self.add(key, cell["status"] == "pass",
                 f"{cell['computed']:.6g} vs {cell['reference']:g} "
                 f"({cell['tolerance']})")


def _digest(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()[:16]


def _build(tr: Tracer, mirror: MirrorSpec, kind: str, points: int):
    with tr.span("potential.build_solver_table", kind=kind, points=points):
        return build_solver_table(mirror, n_points=points)


def _solve(tr: Tracer, table, energy: float, table_kind: str):
    with tr.span("reflection.solve_reflection", table=table_kind) as attrs:
        res = solve_reflection(table, energy)
    attrs.update(steps=res.steps, rejected=res.rejected,
                 flux_drift=res.flux_drift,
                 window_decades=math.log10(res.z_end / res.z_start))
    return res


def _lifetime_attrs(attrs: dict, sl) -> None:
    # source_energies_au moves to 10x smaller heights when the retry fires
    retried = sl.source_energies_au[0] < CONSTANTS.energy_au_from_height(1e-7) / 2
    attrs.update(solves=4 if retried else 2,
                 linear_deviation=sl.linear_deviation)


def _table_summary(table) -> dict:
    return {"V_sha256": _digest(table.V), "c3": table.c3, "c4": table.c4,
            "c5": table.c5}


def _check_c3_anchor(checks: Checks, name: str, table, mirror) -> float:
    dev = abs(table.c3 / vdw_coefficient_integral(mirror) - 1.0)
    checks.add(f"{name}.c3_anchor", dev <= C3_ANCHOR_TOL, f"{dev:.2e}")
    return dev


def _check_pc_coefficients(checks: Checks, table, refs) -> None:
    for quantity, value in (("c3", table.c3), ("c4", table.c4)):
        checks.cell(check_against_reference(
            f"table1.perfect_conductor.{quantity}", value, refs))


def query_us(table) -> float:
    """Median normalised microseconds per ``derivatives_scalar`` call on a
    fixed z set (the potential read path that every RK stage uses)."""
    deriv = table.derivatives_scalar
    passes, refs = [], [reference.sample()]
    for _ in range(5):
        t = time.perf_counter()
        for z in QUERY_Z:
            deriv(z)
        passes.append(time.perf_counter() - t)
        refs.append(reference.sample())
    factor = reference.NOMINAL_S / statistics.median(refs)
    return 1e6 * statistics.median(passes) * factor / len(QUERY_Z)


# ---------------------------------------------------------------------------
# tables: the potential build path, one solver-range table per mirror kind


def _tables_setup(inputs: dict, tr: Tracer) -> dict:
    with tr.span("cli.load_tolerances"):
        refs = load_tolerances()
    silica = load_builtin("silica")
    mirrors = {
        "pc": MirrorSpec.perfect_conductor(),
        "bulk": MirrorSpec.bulk(load_builtin(inputs["bulk"])),
        "slab": MirrorSpec.slab_nm(silica, inputs["slab_nm"]),
        "sheet": MirrorSpec.conducting_sheet(
            SheetModel(graphene_sheet().eta * inputs["sheet_factor"])),
        "porous": MirrorSpec.porous(load_builtin(inputs["porous_host"]),
                                    inputs["porosity"]),
    }
    return {"refs": refs, "mirrors": mirrors}


def _tables_unit(state: dict, inputs: dict, tr: Tracer) -> dict:
    state["tables"] = {kind: _build(tr, mirror, kind, inputs["points"])
                       for kind, mirror in state["mirrors"].items()}
    state["pc"] = state["tables"]["pc"]
    return {kind: _table_summary(t) for kind, t in state["tables"].items()}


def _tables_check(state: dict, inputs: dict, checks: Checks) -> dict:
    tables, refs = state["tables"], state["refs"]
    dev = max(_check_c3_anchor(checks, kind, tables[kind], mirror)
              for kind, mirror in state["mirrors"].items())
    _check_pc_coefficients(checks, tables["pc"], refs)
    if f"table1.{inputs['bulk']}.c3" in refs:
        for quantity in ("c3", "c4"):
            checks.cell(check_against_reference(
                f"table1.{inputs['bulk']}.{quantity}",
                getattr(tables["bulk"], quantity), refs))
    return {"potential.c3_anchor_dev": dev}


# ---------------------------------------------------------------------------
# sweep: reflection solves and the potential read path on prebuilt tables


def _sweep_setup(inputs: dict, tr: Tracer) -> dict:
    with tr.span("cli.load_tolerances"):
        refs = load_tolerances()
    mirror = MirrorSpec.perfect_conductor()
    pc = _build(tr, mirror, "pc", 480)
    with tr.span("potential.from_power_law"):
        c4 = PotentialTable.from_power_law(73.6, 4, 1e-8, 1e7, 480)
    return {"refs": refs, "mirror": mirror, "pc": pc, "c4": c4}


def _sweep_unit(state: dict, inputs: dict, tr: Tracer) -> dict:
    pc, c4 = state["pc"], state["c4"]
    rows = []
    for height in inputs["heights_m"]:
        energy = CONSTANTS.energy_au_from_height(height)
        res = _solve(tr, pc, energy, "pc")
        res_c4 = _solve(tr, c4, energy, "c4")
        with tr.span("numerov.numerov_reflection") as attrs:
            oracle = numerov_reflection(pc, energy, res.z_start, res.z_end)
        attrs.update(points=oracle.n_points,
                     r_dev=abs(abs(res.r) - oracle.r_magnitude))
        with tr.span("reflection.badlands_profile"):
            profile = badlands_profile(pc, energy)
        rows.append({"height_m": height, "probability": res.probability,
                     "steps": res.steps, "rejected": res.rejected,
                     "flux_drift": res.flux_drift,
                     "flux_drift_c4": res_c4.flux_drift,
                     "steps_c4": res_c4.steps,
                     "numerov_r": oracle.r_magnitude,
                     "numerov_points": oracle.n_points,
                     "r_dev": attrs["r_dev"],
                     "peak_z": profile.peak_z, "peak_q": profile.peak_q})
    with tr.span("lifetimes.lifetime_for_table") as attrs:
        lt = lifetime_for_table(pc)
    _lifetime_attrs(attrs, lt.scattering)
    state["rows"], state["lifetime"] = rows, lt
    return {"rows": rows, "tau_s": lt.tau_s, "solves": attrs["solves"]}


def _sweep_check(state: dict, inputs: dict, checks: Checks) -> dict:
    rows, refs = state["rows"], state["refs"]
    for row in rows:
        h = f"h={row['height_m']:.4g}m"
        checks.add(f"numerov_agreement.{h}", row["r_dev"] < NUMEROV_TOL,
                   f"{row['r_dev']:.2e}")
        checks.add(f"flux_drift.pc.{h}", row["flux_drift"] <= FLUX_TOL,
                   f"{row['flux_drift']:.2e}")
        checks.add(f"flux_drift.c4.{h}", row["flux_drift_c4"] <= FLUX_TOL,
                   f"{row['flux_drift_c4']:.2e}")
    by_height = sorted(rows, key=lambda r: r["height_m"])
    probs = [r["probability"] for r in by_height]
    checks.add("pc_reflection_decreasing_with_height",
               all(a > b for a, b in zip(probs, probs[1:])), str(probs))
    at_30cm = next(r for r in rows if r["height_m"] == 0.30)
    checks.cell(check_against_reference(
        "table2.perfect_conductor.refl", at_30cm["probability"], refs))
    checks.cell(check_against_reference(
        "table2.perfect_conductor.lifetime", state["lifetime"].tau_s, refs))
    _check_pc_coefficients(checks, state["pc"], refs)
    dev = _check_c3_anchor(checks, "pc", state["pc"], state["mirror"])
    return {"potential.c3_anchor_dev": dev}


# ---------------------------------------------------------------------------
# pipeline: the `reproduce table2` chain, row by row


def _row_mirror(name: str) -> tuple[str, MirrorSpec]:
    if name == "perfect_conductor":
        return "pc", MirrorSpec.perfect_conductor()
    if name == "graphene":
        return "sheet", MirrorSpec.conducting_sheet(graphene_sheet())
    if name == "silica_slab_5nm":
        return "slab", MirrorSpec.slab_nm(load_builtin("silica"), 5.0)
    return "bulk", MirrorSpec.bulk(load_builtin(name))


def _pipeline_setup(inputs: dict, tr: Tracer) -> dict:
    with tr.span("cli.load_tolerances"):
        refs = load_tolerances()
    return {"refs": refs,
            "mirrors": {name: _row_mirror(name) for name in inputs["rows"]}}


def _pipeline_unit(state: dict, inputs: dict, tr: Tracer) -> dict:
    refs, out_dir = state["refs"], state["out_dir"]
    cells, rows, tables = [], [], {}
    for name in inputs["rows"]:
        kind, mirror = state["mirrors"][name]
        table = _build(tr, mirror, kind, inputs["points"])
        res = _solve(tr, table, E30, kind)
        with tr.span("lifetimes.scattering_length") as attrs:
            sl = scattering_length(table)
        _lifetime_attrs(attrs, sl)
        with tr.span("lifetimes.gqs_lifetime"):
            lt = gqs_lifetime(sl, mirror_label=mirror.label)
        with tr.span("cli.check_against_reference"):
            cells.append(check_against_reference(
                f"table2.{name}.refl", res.probability, refs))
        with tr.span("cli.check_against_reference"):
            cells.append(check_against_reference(
                f"table2.{name}.lifetime", lt.tau_s, refs))
        tables[name] = table
        rows.append({"row": name, "table": _table_summary(table),
                     "probability": res.probability, "steps": res.steps,
                     "flux_drift": res.flux_drift, "tau_s": lt.tau_s,
                     "solves": attrs["solves"]})
    csv_path = out_dir / "reproduce_table2.csv"
    json_path = out_dir / "reproduce_table2.json"
    with tr.span("reporting.comparison_csv"):
        reporting.comparison_csv(cells, csv_path, timestamp=False)
    with tr.span("reporting.write_json"):
        reporting.write_json(reporting.comparison_json(cells), json_path)
    state.update(cells=cells, rows=rows, tables=tables,
                 pc=tables["perfect_conductor"],
                 csv_path=csv_path, json_path=json_path)
    return {"rows": rows}


def _pipeline_check(state: dict, inputs: dict, checks: Checks) -> dict:
    refs, cells = state["refs"], state["cells"]
    for cell in cells:
        checks.cell(cell)
    devs = []
    for row in state["rows"]:
        name = row["row"]
        checks.add(f"flux_drift.{name}", row["flux_drift"] <= FLUX_TOL,
                   f"{row['flux_drift']:.2e}")
        devs.append(_check_c3_anchor(checks, name, state["tables"][name],
                                     state["mirrors"][name][1]))
    _check_pc_coefficients(checks, state["pc"], refs)
    written = json.loads(state["json_path"].read_text())
    expected = json.loads(json.dumps(reporting.comparison_json(cells)))
    checks.add("reporting.json_round_trip", written == expected)
    csv_lines = state["csv_path"].read_text().splitlines()
    statuses = [line.split(",")[6] for line in csv_lines[1:]]
    checks.add("reporting.csv_rows",
               statuses == [c["status"] for c in cells], str(statuses))
    state["csv_path"].unlink()
    state["json_path"].unlink()
    return {"potential.c3_anchor_dev": max(devs)}


WORKLOADS = {
    "tables": (_tables_setup, _tables_unit, _tables_check),
    "sweep": (_sweep_setup, _sweep_unit, _sweep_check),
    "pipeline": (_pipeline_setup, _pipeline_unit, _pipeline_check),
}
