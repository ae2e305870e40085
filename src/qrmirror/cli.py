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
    graphene_sheet,
    key_value_lines,
    load_builtin,
    load_material_file,
)
from .potential import (
    MirrorSpec,
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


def _yes_no(value: str) -> bool:
    spelled = value.lower()
    if spelled not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected 1/true/yes or 0/false/no, got {value!r}")
    return spelled in ("1", "true", "yes")


def _format(value: str) -> str:
    if value not in ("csv", "json"):
        raise ValueError(f"unknown format {value!r} (csv or json)")
    return value


# config key -> (value parser, default); main merges flag, config, default
_CONFIG_KEYS = {
    "mirror": (str, None),
    "slab_nm": (float, None),
    "porosity": (float, None),
    "height_cm": (lambda v: [float(h) for h in v.split(",")], None),
    "z_min_a0": (float, SOLVER_Z_LO),
    "z_max_a0": (float, SOLVER_Z_HI),
    "points": (int, SOLVER_POINTS),
    "format": (_format, "csv"),
    "out": (str, None),
    "no_timestamp": (_yes_no, False),
}
_OUTPUT_KEYS = {"format", "out", "no_timestamp"}


def _merge_settings(args) -> None:
    """Set every config key on ``args``: the flag unless it is None, else
    the config file's value, else the default.  ``reproduce`` runs its own
    mirrors, heights and grids, so its config may set only output keys."""
    cfg = {}
    path = getattr(args, "config", None)   # `material` takes no config
    for where, key, value in key_value_lines(path, UsageError) if path else ():
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{where}: unknown config key {key!r}")
        try:
            cfg[key] = _CONFIG_KEYS[key][0](value)
        except ValueError as exc:
            raise UsageError(f"{where}: {key}: {exc}") from exc
    ignored = sorted(set(cfg) - _OUTPUT_KEYS)
    if args.command == "reproduce" and ignored:
        raise UsageError("reproduce uses its own mirrors, heights and grids; "
                         f"the config sets {', '.join(ignored)}")
    for key, (_, default) in _CONFIG_KEYS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, cfg.get(key, default))


# the mirrors that no material file describes: name -> (spec, its name in
# messages, its `material show` line)
_NAMED_MIRRORS = {
    "perfect_conductor": (MirrorSpec.perfect_conductor(), "perfect conductor",
                          "ideal mirror (r_TM = 1, r_TE = -1)"),
    "graphene": (MirrorSpec.conducting_sheet(graphene_sheet()), "graphene sheet",
                 f"conducting sheet, eta = {graphene_sheet().eta:.6g}"),
}


def _mirror_names() -> list[str]:
    """Every mirror that ``--mirror`` takes by name."""
    return sorted(builtin_material_names() + list(_NAMED_MIRRORS))


def _resolve_mirror(name, slab_nm, porosity) -> MirrorSpec:
    if not name:
        raise UsageError("no mirror selected (use --mirror)")
    if slab_nm is not None and porosity is not None:
        raise UsageError("--slab-nm and --porosity are mutually exclusive")
    if name in _NAMED_MIRRORS:
        mirror, spelled, _ = _NAMED_MIRRORS[name]
        if slab_nm is not None or porosity is not None:
            raise UsageError(f"{spelled} takes no slab/porosity modifier")
        return mirror
    if name == "vacuum":
        raise UsageError("vacuum is not a mirror")
    # a file if one exists at ``name``, else the shipped material ``name``
    if Path(name).is_file():
        model = load_material_file(name)
    elif name in builtin_material_names():
        model = load_builtin(name)
    else:
        raise UsageError(f"unknown material {name!r}; shipped: "
                         f"{', '.join(_mirror_names())}")
    # MirrorSpec rejects a model without oscillators and validates the
    # thickness and the porosity (ValueError: exit 2)
    if slab_nm is not None:
        return MirrorSpec.slab_nm(model, slab_nm)
    if porosity is not None:
        return MirrorSpec.porous(model, porosity)
    return MirrorSpec.bulk(model)


def _heights_m(args) -> list[float]:
    if not args.height_cm:
        raise UsageError("no heights given (use --height-cm)")
    heights = [h * 1e-2 for h in args.height_cm]
    if not all(0 < h < math.inf for h in heights):
        raise UsageError("heights must be positive and finite, got "
                         f"{args.height_cm}")
    return heights


def _mirror_slug(mirror: MirrorSpec) -> str:
    return (mirror.label.replace(" ", "_").replace("=", "")
            .replace(".", "p"))


def _emit(args, stem: str, write_csv, make_json, *data) -> None:
    """Write ``data`` as CSV or JSON (per --format) and report the path."""
    out = Path(args.out or f"{stem}.{args.format}")
    if args.format == "csv":
        write_csv(*data, out, timestamp=not args.no_timestamp)
    else:
        reporting.write_json(make_json(*data), out)
    print(f"wrote {out}")


# ---------------------------------------------------------------------------
# commands


def _cmd_material(args) -> int:
    if args.action == "list":
        print("\n".join(_mirror_names()))
        return 0
    if args.name is None:
        raise UsageError("material show needs a name")
    if args.name in _NAMED_MIRRORS:
        print(f"{args.name}: {_NAMED_MIRRORS[args.name][2]}")
        return 0
    model = _resolve_mirror(args.name, slab_nm=None, porosity=None).dielectric
    print(f"{model.name}: {len(model.oscillators)} oscillator(s)")
    print(f"  static epsilon = {model.static_epsilon:.4f}")
    lam = model.wavelength_au
    print(f"  wavelength = {lam:.1f} a0 = {lam * CONSTANTS.bohr_nm:.2f} nm")
    for osc in model.oscillators:
        print(f"  osc: wp2 = {osc.plasma_sq:g} Eh^2, w02 = {osc.resonance_sq:g} "
              f"Eh^2, gamma = {osc.damping:g} Eh")
    return 0


def _cmd_potential(args) -> int:
    mirror = _resolve_mirror(args.mirror, args.slab_nm, args.porosity)
    table = build_potential_table(mirror, args.z_min_a0, args.z_max_a0,
                                  args.points)
    _emit(args, f"potential_{_mirror_slug(mirror)}", reporting.potential_table_csv,
          reporting.potential_table_json, table)
    return 0


def _cmd_reflect(args) -> int:
    mirror = _resolve_mirror(args.mirror, args.slab_nm, args.porosity)
    heights = _heights_m(args)
    table = build_potential_table(mirror, args.z_min_a0, args.z_max_a0,
                                  args.points)
    points = reflection_sweep(table, heights)
    _emit(args, f"reflect_{_mirror_slug(mirror)}", reporting.sweep_csv,
          reporting.sweep_json, points)
    failed = [p for p in points if p.result is None]
    for p in failed:
        print(f"numerical failure: h = {p.height_m:g} m: {p.error}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_badlands(args) -> int:
    mirror = _resolve_mirror(args.mirror, args.slab_nm, args.porosity)
    heights = _heights_m(args)
    keys = [f"{h:g}" for h in heights]   # the report's column and peak keys
    if len(set(keys)) < len(keys):
        raise UsageError("badlands heights must differ in 6 significant "
                         f"digits, got {args.height_cm} cm")
    table = build_potential_table(mirror, args.z_min_a0, args.z_max_a0,
                                  args.points)
    profiles = {h: badlands_profile(table, CONSTANTS.energy_au_from_height(h))
                for h in heights}
    _emit(args, f"badlands_{_mirror_slug(mirror)}", reporting.badlands_csv,
          reporting.badlands_json, table.z, profiles)
    return 0


def _cmd_lifetime(args) -> int:
    mirror = _resolve_mirror(args.mirror, args.slab_nm, args.porosity)
    table = build_potential_table(mirror, args.z_min_a0, args.z_max_a0,
                                  args.points)
    lt = lifetime_for_table(table)
    rows = [(mirror.label, mirror.porosity, abs(lt.scattering.im_a_nm),
             lt.tau_s, lt.scattering.re_a_nm)]
    _emit(args, f"lifetime_{_mirror_slug(mirror)}", reporting.lifetime_csv,
          reporting.lifetime_json, rows)
    return 0


# -- reproduce --------------------------------------------------------------


def load_tolerances() -> dict:
    """Parse the shipped reference/tolerance data file."""
    refs = {}
    for where, key, value in key_value_lines(_TOLERANCES_PATH, ValueError):
        parts = value.split()
        if len(parts) != 3 or parts[1] not in ("rel", "abs"):
            raise ValueError(f"{where}: expected 'ref rel|abs tol'")
        refs[key] = (float(parts[0]), parts[1], float(parts[2]))
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


def check_against_reference(key: str, computed: float | None,
                            refs: dict) -> dict:
    """Cell of ``computed`` against its reference; None (nothing computed,
    e.g. a power-law fit that missed) fails."""
    ref, kind, tol = refs[key]
    ok = computed is not None and (
        abs(computed - ref) <= (tol * abs(ref) if kind == "rel" else tol))
    return _cell(key, computed, ref, f"{kind} {tol:g}", "pass" if ok else "fail")


def _check_relation(key: str, holds: bool, relation: str, note: str) -> dict:
    """Cell of a structural check: ``relation`` holds, or is 'violated'."""
    return _cell(key, relation if holds else "violated", relation, "",
                 "pass" if holds else "fail", note)


def _mirror_registry() -> dict[str, MirrorSpec]:
    """Row name -> mirror: the one mirror registry of every ``reproduce``
    target, in table2 row order; table1, fig1 and fig2 read _TABLE1_ROWS."""
    silica = load_builtin("silica")
    silicon = load_builtin("silicon")
    diamond = load_builtin("diamond")
    return {
        "perfect_conductor": _NAMED_MIRRORS["perfect_conductor"][0],
        "silicon": MirrorSpec.bulk(silicon),
        "silica": MirrorSpec.bulk(silica),
        "silica_slab_5nm": MirrorSpec.slab_nm(silica, 5.0),
        "graphene": _NAMED_MIRRORS["graphene"][0],
        "nanodiamond_p95": MirrorSpec.porous(diamond, 0.95),
        "porous_silicon_p95": MirrorSpec.porous(silicon, 0.95),
        "silica_aerogel_p98": MirrorSpec.porous(silica, 0.98),
    }


# the rows of table1, also compared in fig1 and fig2, strongest mirror first
_TABLE1_ROWS = ("perfect_conductor", "silicon", "silica")

# Reflection probabilities are deliberately not reported for the porous
# mirrors: at the benchmark energy the atoms approach within a few
# nanometers, below the scale of the medium's inhomogeneities, where the
# effective-medium description is not trustworthy.  Only lifetimes (set at
# much larger distances) are quoted, hence the blank cells.
_LIFETIME_ONLY_ROWS = ("nanodiamond_p95", "porous_silicon_p95",
                       "silica_aerogel_p98")


def _reproduce_table1(tables, refs) -> list[dict]:
    rows = []
    for name in _TABLE1_ROWS:
        table = tables[name]
        for quantity in ("c3", "c4"):
            cell = check_against_reference(f"table1.{name}.{quantity}",
                                           getattr(table, quantity), refs)
            if cell["computed"] is None:
                cell["note"] = "; ".join(table.fit_notes)
            rows.append(cell)
    return rows


def _reproduce_table2(tables, refs) -> list[dict]:
    energy = CONSTANTS.energy_au_from_height(0.30)
    rows = []
    for name, table in tables.items():
        if name not in _LIFETIME_ONLY_ROWS:
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


def _reproduce_fig1(tables, refs) -> list[dict]:
    del refs  # structural checks only
    z = np.geomspace(1.0, 1e6, 61)
    v_pc = np.abs(tables["perfect_conductor"].potential(z))
    v_si = np.abs(tables["silicon"].potential(z))
    v_sil = np.abs(tables["silica"].potential(z))
    ok_pot = bool(np.all(v_pc >= v_si) and np.all(v_si >= v_sil))
    rows = [_check_relation("fig1.left.potential_ordering", ok_pot,
                            "PC>=Si>=silica", "at every z")]
    heights = [0.01, 0.03, 0.1, 0.3, 1.0]
    probs = {name: [solve_reflection(table, CONSTANTS.energy_au_from_height(h))
                    .probability for h in heights]
             for name, table in tables.items()}
    ok_refl = all(
        probs["perfect_conductor"][i] < probs["silicon"][i] < probs["silica"][i]
        for i in range(len(heights))
    )
    rows.append(_check_relation("fig1.right.reflection_ordering", ok_refl,
                                "PC<Si<silica", f"heights_m={heights}"))
    return rows


def _reproduce_fig2(tables, refs) -> list[dict]:
    del refs  # structural checks only
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
    refs = load_tolerances()
    builder = {
        "table1": _reproduce_table1,
        "table2": _reproduce_table2,
        "fig1": _reproduce_fig1,
        "fig2": _reproduce_fig2,
    }[args.target]
    # each mirror the target reads is built once, on the solver grid
    mirrors = _mirror_registry()
    names = mirrors if args.target == "table2" else _TABLE1_ROWS
    rows = builder({n: build_solver_table(mirrors[n]) for n in names}, refs)
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
    args = build_parser().parse_args(argv)
    try:
        _merge_settings(args)
        return args.func(args)
    except (QuadratureError, SolveError, ExtractionError,
            ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except (UsageError, MaterialFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
