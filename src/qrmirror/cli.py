"""Command-line front end.

Commands: material list|show, potential, reflect, badlands, lifetime,
reproduce.  Exit codes: 0 success, 1 numerical failure, 2 usage or
configuration error.  Identical configurations produce byte-identical
output files once the timestamp header is suppressed (--no-timestamp).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import reporting
from .constants import CONSTANTS
from .lifetimes import ExtractionError, lifetime_for_table
from .optics import (
    MaterialFileError,
    builtin_material_names,
    builtin_material_path,
    graphene_sheet,
    load_builtin,
    load_material_file,
    material_file_kind,
)
from .potential import (
    AsymptoticsError,
    MirrorSpec,
    PotentialTable,
    QuadratureError,
    SOLVER_POINTS,
    SOLVER_Z_HI,
    SOLVER_Z_LO,
    build_potential_table,
    build_solver_table,
)
from .reflection import SolveError, badlands_profile, reflection_sweep, solve_reflection

_TOLERANCES_PATH = Path(__file__).parent / "materials" / "tolerances"


class UsageError(ValueError):
    """Configuration or argument error (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration


_OUTPUT_KEYS = {"format", "out", "no_timestamp"}
_CONFIG_KEYS = _OUTPUT_KEYS | {
    "mirror", "slab_nm", "porosity", "height_cm", "z_min_a0", "z_max_a0",
    "points",
}


def _load_config(path: str) -> dict:
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key == "height_cm":
            cfg[key] = [float(v) for v in value.split(",")]
        elif key in ("slab_nm", "porosity", "z_min_a0", "z_max_a0"):
            cfg[key] = float(value)
        elif key == "points":
            cfg[key] = int(value)
        elif key == "no_timestamp":
            cfg[key] = value.lower() in ("1", "true", "yes")
        else:
            cfg[key] = value
    return cfg


def _effective(args, key: str, default=None):
    """CLI flag wins over config-file value wins over default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    cfg = getattr(args, "_config", {})
    if key in cfg:
        return cfg[key]
    return default


def _resolve_mirror(args) -> MirrorSpec:
    name = _effective(args, "mirror")
    if not name:
        raise UsageError("no mirror selected (use --mirror)")
    slab_nm = _effective(args, "slab_nm")
    porosity = _effective(args, "porosity")
    if slab_nm is not None and porosity is not None:
        raise UsageError("--slab-nm and --porosity are mutually exclusive")

    if name == "graphene":
        if slab_nm is not None or porosity is not None:
            raise UsageError("graphene sheet takes no slab/porosity modifier")
        return MirrorSpec.conducting_sheet(graphene_sheet())
    if name == "vacuum":
        raise UsageError("vacuum is not a mirror")

    path = Path(name)
    if not path.is_file():
        path = builtin_material_path(name)
    if material_file_kind(path) == "perfect_conductor":
        if slab_nm is not None or porosity is not None:
            raise UsageError("perfect conductor takes no slab/porosity modifier")
        return MirrorSpec.perfect_conductor()
    model = load_material_file(path)
    if model.is_vacuum:
        raise UsageError(f"material {name!r} has no oscillators: not a mirror")
    # MirrorSpec validates the thickness and the porosity (ValueError: exit 2)
    if slab_nm is not None:
        return MirrorSpec.slab_nm(model, slab_nm)
    if porosity is not None:
        return MirrorSpec.porous(model, porosity)
    return MirrorSpec.bulk(model)


def _heights_m(args) -> list[float]:
    heights_cm = _effective(args, "height_cm")
    if not heights_cm:
        raise UsageError("no heights given (use --height-cm)")
    heights = [h * 1e-2 for h in heights_cm]
    if not all(0 < h < math.inf for h in heights):
        raise UsageError(f"heights must be positive and finite, got {heights_cm}")
    return heights


def _out_path(args, default_name: str) -> Path:
    out = _effective(args, "out")
    return Path(out) if out else Path(default_name)


def _fmt_kind(args) -> str:
    fmt = _effective(args, "format", "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unknown format {fmt!r} (csv or json)")
    return fmt


def _mirror_slug(mirror: MirrorSpec) -> str:
    return (mirror.label.replace(" ", "_").replace("=", "")
            .replace(".", "p"))


def _table(args, mirror: MirrorSpec) -> PotentialTable:
    """The mirror's table on the grid of the flags/config, else the solver
    grid."""
    z_lo = _effective(args, "z_min_a0", SOLVER_Z_LO)
    z_hi = _effective(args, "z_max_a0", SOLVER_Z_HI)
    n = _effective(args, "points", SOLVER_POINTS)
    if not 0 < z_lo < z_hi < math.inf:
        raise UsageError("need 0 < z-min < z-max < inf")
    if n < 16:
        raise UsageError("need at least 16 grid points")
    return build_potential_table(mirror, z_lo, z_hi, n)


def _emit(args, stem: str, write_csv, make_json, *data) -> None:
    """Write ``data`` as CSV or JSON (per --format) and report the path."""
    fmt = _fmt_kind(args)
    out = _out_path(args, f"{stem}.{fmt}")
    if fmt == "csv":
        stamp = not _effective(args, "no_timestamp", False)
        write_csv(*data, out, timestamp=stamp)
    else:
        reporting.write_json(make_json(*data), out)
    print(f"wrote {out}")


# ---------------------------------------------------------------------------
# commands


def _cmd_material(args) -> int:
    if args.action == "list":
        names = builtin_material_names() + ["graphene"]
        for n in sorted(names):
            print(n)
        return 0
    name = args.name
    if name is None:
        raise UsageError("material show needs a name")
    if name == "graphene":
        sheet = graphene_sheet()
        print("graphene: conducting sheet, eta =", f"{sheet.eta:.6g}")
        return 0
    path = builtin_material_path(name)
    if material_file_kind(path) == "perfect_conductor":
        print("perfect_conductor: ideal mirror (r_TM = 1, r_TE = -1)")
        return 0
    model = load_material_file(path)
    print(f"{model.name}: {len(model.oscillators)} oscillator(s)")
    print(f"  static epsilon = {model.static_epsilon:.4f}")
    lam = model.wavelength_au
    print(f"  wavelength = {lam:.1f} a0 = {lam * CONSTANTS.bohr_nm:.2f} nm")
    for osc in model.oscillators:
        print(f"  osc: wp2 = {osc.plasma_sq:g} Eh^2, w02 = {osc.resonance_sq:g} "
              f"Eh^2, gamma = {osc.damping:g} Eh")
    return 0


def _cmd_potential(args) -> int:
    mirror = _resolve_mirror(args)
    table = _table(args, mirror)
    _emit(args, f"potential_{_mirror_slug(mirror)}", reporting.potential_table_csv,
          reporting.potential_table_json, table)
    return 0


def _cmd_reflect(args) -> int:
    mirror = _resolve_mirror(args)
    heights = _heights_m(args)
    table = _table(args, mirror)
    points = reflection_sweep(table, heights_m=heights)
    _emit(args, f"reflect_{_mirror_slug(mirror)}", reporting.sweep_csv,
          reporting.sweep_json, points)
    return 0 if all(p.result is not None for p in points) else 1


def _cmd_badlands(args) -> int:
    mirror = _resolve_mirror(args)
    heights = _heights_m(args)
    table = _table(args, mirror)
    profiles = {}
    peaks = {}
    for h in heights:
        energy = CONSTANTS.energy_au_from_height(h)
        prof = badlands_profile(table, energy)
        profiles[h] = prof.q
        peaks[h] = (prof.peak_z, prof.peak_q)
    _emit(args, f"badlands_{_mirror_slug(mirror)}", reporting.badlands_csv,
          reporting.badlands_json, table.z, profiles, peaks)
    return 0


def _cmd_lifetime(args) -> int:
    mirror = _resolve_mirror(args)
    table = _table(args, mirror)
    lt = lifetime_for_table(table)
    porosity = mirror.porous_spec.porosity if mirror.kind == "porous" else None
    rows = [(mirror.label, porosity, abs(lt.scattering.im_a_nm), lt.tau_s)]
    _emit(args, f"lifetime_{_mirror_slug(mirror)}", reporting.lifetime_csv,
          reporting.lifetime_json, rows)
    return 0


# -- reproduce --------------------------------------------------------------


def load_tolerances(path=_TOLERANCES_PATH) -> dict:
    """Parse the shipped reference/tolerance data file."""
    refs = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition("=")
        parts = value.split()
        if len(parts) != 3 or parts[1] not in ("rel", "abs"):
            raise ValueError(f"{path}:{lineno}: expected 'ref rel|abs tol'")
        refs[key.strip()] = (float(parts[0]), parts[1], float(parts[2]))
    return refs


def _cell(key: str, computed, reference, tolerance: str, status: str,
          note: str = "") -> dict:
    """One row of a ``reproduce`` bundle; key is 'target.row.quantity'."""
    target, row, quantity = key.split(".")
    return {
        "target": target, "row": row, "quantity": quantity,
        "computed": computed, "reference": reference, "tolerance": tolerance,
        "status": status, "note": note,
    }


def check_against_reference(key: str, computed: float, refs: dict) -> dict:
    ref, kind, tol = refs[key]
    if kind == "rel":
        ok = abs(computed - ref) <= tol * abs(ref)
    else:
        ok = abs(computed - ref) <= tol
    return _cell(key, computed, ref, f"{kind} {tol:g}", "pass" if ok else "fail")


def _check_relation(key: str, holds: bool, relation: str, note: str) -> dict:
    """Cell of a structural check: ``relation`` holds, or is 'violated'."""
    return _cell(key, relation if holds else "violated", relation, "",
                 "pass" if holds else "fail", note)


def _table2_mirrors() -> list[tuple[str, MirrorSpec, bool]]:
    """(row name, mirror, reflection reported?): the one mirror registry of
    every ``reproduce`` target; table1, fig1 and fig2 select rows by name.

    Reflection probabilities are deliberately not reported for the porous
    mirrors: at the benchmark energy the atoms approach within a few
    nanometers, below the scale of the medium's inhomogeneities, where the
    effective-medium description is not trustworthy.  Only lifetimes (set
    at much larger distances) are quoted, hence the blank cells.
    """
    silica = load_builtin("silica")
    silicon = load_builtin("silicon")
    diamond = load_builtin("diamond")
    return [
        ("perfect_conductor", MirrorSpec.perfect_conductor(), True),
        ("silicon", MirrorSpec.bulk(silicon), True),
        ("silica", MirrorSpec.bulk(silica), True),
        ("silica_slab_5nm", MirrorSpec.slab_nm(silica, 5.0), True),
        ("graphene", MirrorSpec.conducting_sheet(graphene_sheet()), True),
        ("nanodiamond_p95", MirrorSpec.porous(diamond, 0.95), False),
        ("porous_silicon_p95", MirrorSpec.porous(silicon, 0.95), False),
        ("silica_aerogel_p98", MirrorSpec.porous(silica, 0.98), False),
    ]


# the rows of table1, also compared in fig1 and fig2, strongest mirror first
_TABLE1_ROWS = ("perfect_conductor", "silicon", "silica")


def _registry_rows(names) -> dict[str, MirrorSpec]:
    mirrors = {name: mirror for name, mirror, _ in _table2_mirrors()}
    return {name: mirrors[name] for name in names}


def _reproduce_table1(refs) -> list[dict]:
    rows = []
    for name, mirror in _registry_rows(_TABLE1_ROWS).items():
        table = build_solver_table(mirror)
        rows.append(check_against_reference(f"table1.{name}.c3", table.c3, refs))
        rows.append(check_against_reference(f"table1.{name}.c4", table.c4, refs))
    return rows


def _reproduce_table2(refs) -> list[dict]:
    energy = CONSTANTS.energy_au_from_height(0.30)
    rows = []
    for name, mirror, with_reflection in _table2_mirrors():
        table = build_solver_table(mirror)
        if with_reflection:
            res = solve_reflection(table, energy)
            cell = check_against_reference(f"table2.{name}.refl",
                                           res.probability, refs)
            if name == "graphene":
                cell["note"] = "model-substituted"
            rows.append(cell)
        else:
            rows.append(_cell(f"table2.{name}.refl", None, None, "", "n/a",
                              "effective medium not valid at this energy"))
        lt = lifetime_for_table(table)
        rows.append(check_against_reference(f"table2.{name}.lifetime",
                                            lt.tau_s, refs))
    return rows


def _reproduce_fig1(refs) -> list[dict]:
    del refs  # structural checks only
    tables = {n: build_solver_table(m)
              for n, m in _registry_rows(_TABLE1_ROWS).items()}
    z = np.geomspace(1.0, 1e6, 61)
    v_pc = np.abs(tables["perfect_conductor"].potential(z))
    v_si = np.abs(tables["silicon"].potential(z))
    v_sil = np.abs(tables["silica"].potential(z))
    ok_pot = bool(np.all(v_pc >= v_si) and np.all(v_si >= v_sil))
    rows = [_check_relation("fig1.left.potential_ordering", ok_pot,
                            "PC>=Si>=silica", "at every z")]
    heights = [0.01, 0.03, 0.1, 0.3, 1.0]
    probs = {}
    for name in tables:
        pts = reflection_sweep(tables[name], heights_m=heights)
        probs[name] = [p.result.probability for p in pts]
    ok_refl = all(
        probs["perfect_conductor"][i] < probs["silicon"][i] < probs["silica"][i]
        for i in range(len(heights))
    )
    rows.append(_check_relation("fig1.right.reflection_ordering", ok_refl,
                                "PC<Si<silica", f"heights_m={heights}"))
    return rows


def _reproduce_fig2(refs) -> list[dict]:
    del refs  # structural checks only
    tables = {n: build_solver_table(m)
              for n, m in _registry_rows(_TABLE1_ROWS).items()}
    e10 = CONSTANTS.energy_au_from_height(0.10)
    peaks10 = {n: badlands_profile(t, e10) for n, t in tables.items()}
    ok_left = (peaks10["perfect_conductor"].peak_z
               > peaks10["silicon"].peak_z
               > peaks10["silica"].peak_z)
    rows = [_check_relation("fig2.left.peak_position_ordering", ok_left,
                            "PC>Si>silica", "h=10cm")]
    pc = tables["perfect_conductor"]
    peaks = [badlands_profile(pc, CONSTANTS.energy_au_from_height(h))
             for h in (0.10, 0.30, 0.50)]
    ok_height = peaks[0].peak_q > peaks[1].peak_q > peaks[2].peak_q
    ok_pos = peaks[0].peak_z > peaks[1].peak_z > peaks[2].peak_z
    rows.append(_check_relation("fig2.right.peak_height_vs_energy", ok_height,
                                "decreasing", "h=10,30,50cm"))
    rows.append(_check_relation("fig2.right.peak_position_vs_energy", ok_pos,
                                "toward surface", "h=10,30,50cm"))
    return rows


def _cmd_reproduce(args) -> int:
    ignored = sorted(set(args._config) - _OUTPUT_KEYS)
    if ignored:
        raise UsageError("reproduce uses its own mirrors, heights and grids; "
                         f"the config sets {', '.join(ignored)}")
    refs = load_tolerances()
    builder = {
        "table1": _reproduce_table1,
        "table2": _reproduce_table2,
        "fig1": _reproduce_fig1,
        "fig2": _reproduce_fig2,
    }[args.target]
    rows = builder(refs)
    for r in rows:
        print(f"{r['target']}.{r['row']}.{r['quantity']}: {r['status']}"
              + (f" ({r['note']})" if r.get("note") else ""))
    _emit(args, f"reproduce_{args.target}", reporting.comparison_csv,
          reporting.comparison_json, rows)
    return 0 if all(r["status"] != "fail" for r in rows) else 1


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrmirror",
        description="Casimir-Polder potentials, quantum reflection and "
                    "gravitational-state lifetimes of (anti)hydrogen above "
                    "planar mirrors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--out")
        p.add_argument("--config")
        p.add_argument("--no-timestamp", dest="no_timestamp",
                       action="store_const", const=True, default=None)

    def add_common(p, heights=False):
        p.add_argument("--mirror", help="material name, file path, "
                                        "'perfect_conductor' or 'graphene'")
        p.add_argument("--slab-nm", dest="slab_nm", type=float,
                       help="treat the material as a slab of this thickness")
        p.add_argument("--porosity", type=float,
                       help="treat the material as a porous medium "
                            "(vacuum fraction)")
        if heights:
            p.add_argument("--height-cm", dest="height_cm", type=float,
                           action="append", help="free-fall height (repeatable)")
        p.add_argument("--z-min-a0", dest="z_min_a0", type=float)
        p.add_argument("--z-max-a0", dest="z_max_a0", type=float)
        p.add_argument("--points", type=int)
        add_output(p)

    p_mat = sub.add_parser("material", help="list or show shipped materials")
    p_mat.add_argument("action", choices=("list", "show"))
    p_mat.add_argument("name", nargs="?")
    p_mat.set_defaults(func=_cmd_material)

    p_pot = sub.add_parser("potential", help="tabulate the CP potential")
    add_common(p_pot)
    p_pot.set_defaults(func=_cmd_potential)

    p_ref = sub.add_parser("reflect", help="quantum reflection probabilities")
    add_common(p_ref, heights=True)
    p_ref.set_defaults(func=_cmd_reflect)

    p_bad = sub.add_parser("badlands", help="WKB badlands profiles")
    add_common(p_bad, heights=True)
    p_bad.set_defaults(func=_cmd_badlands)

    p_lif = sub.add_parser("lifetime", help="gravitational-state lifetime")
    add_common(p_lif)
    p_lif.set_defaults(func=_cmd_lifetime)

    p_rep = sub.add_parser("reproduce", help="benchmark comparison bundles")
    p_rep.add_argument("target", choices=("table1", "table2", "fig1", "fig2"))
    add_output(p_rep)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        args._config = _load_config(config_path) if config_path else {}
        return args.func(args)
    except (QuadratureError, AsymptoticsError, SolveError,
            ExtractionError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, MaterialFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
