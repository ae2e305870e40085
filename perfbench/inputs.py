"""Seeded inputs of each workload.

The seed is a benchmark argument; qrmirror only ever sees the values drawn
here.  Every draw is recorded in the run's result, so a seed names its
inputs exactly.  The ranges are chosen so that every seed gives about the
same amount of work: run-to-run spread then reflects the program, not the
draw.
"""

from __future__ import annotations

import random

# Solver-range tables (z in [1e-8, 1e7] a0) on fewer points than the default
# 480, so that a workload unit stays at seconds while keeping the call chain
# of a full run.  Both sizes pass every check in workloads.py; the pipeline keeps the
# finer grid because its reflection and lifetime cells are read off it.
TABLES_POINTS = 48
PIPELINE_POINTS = 96

DIELECTRICS = ("silicon", "silica", "diamond")
BULK_ROWS = ("silicon", "silica")
THIN_ROWS = ("silica_slab_5nm", "graphene")


def _tables(rng: random.Random) -> dict:
    # Bulk and porous host are two different dielectrics: per-point cost
    # differs by up to 1.6x between them, and a pair of distinct ones
    # varies less from seed to seed than two independent draws.
    bulk, host = rng.sample(DIELECTRICS, 2)
    return {
        "points": TABLES_POINTS,
        "bulk": bulk,
        "slab_nm": rng.uniform(2.0, 20.0),
        "sheet_factor": rng.uniform(0.5, 2.0),
        "porous_host": host,
        "porosity": rng.uniform(0.90, 0.99),
    }


def _sweep(rng: random.Random) -> dict:
    seeded = [10.0 ** rng.uniform(-3.0, 0.0) for _ in range(2)]
    return {"heights_m": [0.30] + seeded}


def _pipeline(rng: random.Random) -> dict:
    # One bulk and one thin-film row: the two groups differ in table cost by
    # about 20%, and drawing one row of each keeps that out of the spread.
    return {
        "points": PIPELINE_POINTS,
        "rows": ["perfect_conductor", rng.choice(BULK_ROWS),
                 rng.choice(THIN_ROWS)],
    }


GENERATORS = {"tables": _tables, "sweep": _sweep, "pipeline": _pipeline}


def draw(workload: str, seed: int) -> dict:
    """The inputs of ``workload`` for ``seed``; equal seeds give equal inputs."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
