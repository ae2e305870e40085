"""Shared fixtures: solver-grade potential tables are expensive (seconds
each), so they are built once per session and shared across modules.

``run_cli`` runs ``python -m qrmirror`` in a child process that imports
the same ``qrmirror`` this test process imported.

Hypothesis runs derandomized and without its example database: every run
of a property test draws the same examples, so two runs of the suite (on
two versions of the code, say) test the same inputs.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import qrmirror
from qrmirror.optics import graphene_sheet, load_builtin
from qrmirror.potential import MirrorSpec, PotentialTable, build_solver_table

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def run_cli():
    """Callable ``run_cli(*args, cwd=None, timeout=900)`` that runs the CLI
    as ``python -m qrmirror *args`` and returns the CompletedProcess.

    The child's PYTHONPATH starts with the absolute directory holding the
    imported ``qrmirror`` (``src/`` or site-packages), so a child started
    from any working directory runs the code under test.  A child still
    running after ``timeout`` seconds is killed and the test fails with
    ``subprocess.TimeoutExpired``, so a hang cannot stall the suite."""
    env = dict(os.environ)
    root = str(Path(qrmirror.__file__).resolve().parents[1])
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")

    def run(*args: str, cwd=None, timeout=900) -> subprocess.CompletedProcess:
        cmd = [sys.executable, "-m", "qrmirror", *args]
        return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                              env=env, timeout=timeout)

    return run


@pytest.fixture(scope="session")
def pc_table():
    return build_solver_table(MirrorSpec.perfect_conductor())


@pytest.fixture(scope="session")
def silicon_table():
    return build_solver_table(MirrorSpec.bulk(load_builtin("silicon")))


@pytest.fixture(scope="session")
def silica_table():
    return build_solver_table(MirrorSpec.bulk(load_builtin("silica")))


@pytest.fixture(scope="session")
def slab_table():
    return build_solver_table(MirrorSpec.slab_nm(load_builtin("silica"), 5.0))


@pytest.fixture(scope="session")
def graphene_table():
    return build_solver_table(MirrorSpec.conducting_sheet(graphene_sheet()))


@pytest.fixture(scope="session")
def nanodiamond_table():
    return build_solver_table(MirrorSpec.porous(load_builtin("diamond"), 0.95))


@pytest.fixture(scope="session")
def porous_silicon_table():
    return build_solver_table(MirrorSpec.porous(load_builtin("silicon"), 0.95))


@pytest.fixture(scope="session")
def aerogel_table():
    return build_solver_table(MirrorSpec.porous(load_builtin("silica"), 0.98))


@pytest.fixture(scope="session")
def pure_c4_table():
    """Synthetic -C4/z^4 with the perfect-conductor retarded coefficient."""
    return PotentialTable.from_power_law(73.6, 4.0, 1e-8, 1e7, 480)


@pytest.fixture(scope="session")
def pure_c3_table():
    """Synthetic -C3/z^3 with the perfect-conductor van der Waals coefficient."""
    return PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)
