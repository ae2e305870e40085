"""Shared fixtures: solver-grade potential tables are expensive (seconds
each), so they are built once per session and shared across modules.

``run_main`` runs the CLI's ``main`` in this process, from a temporary
working directory.  ``run_python`` runs ``python`` (``run_cli``: ``python
-m qrmirror``) in a child process that imports the same ``qrmirror`` this
test process imported; the suite keeps it for what only a process shows:
the entry point, the modules a fresh interpreter loads and a hang.

Hypothesis runs derandomized and without its example database: every run
of a property test draws the same examples, so two runs of the suite (on
two versions of the code, say) test the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import qrmirror
from qrmirror import cli, reflection
from qrmirror.cli import _mirror_registry
from qrmirror.potential import PotentialTable, build_solver_table

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def run_python():
    """Callable ``run_python(*args, cwd=None, timeout=900)`` that runs
    ``python *args`` and returns the CompletedProcess.

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
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, cwd=cwd, env=env, timeout=timeout)

    return run


@pytest.fixture(scope="session")
def run_cli(run_python):
    """Callable ``run_cli(*args, cwd=None, timeout=900)`` that runs the CLI
    as ``python -m qrmirror *args`` in a ``run_python`` child."""
    def run(*args: str, cwd=None, timeout=900) -> subprocess.CompletedProcess:
        return run_python("-m", "qrmirror", *args, cwd=cwd, timeout=timeout)

    return run


@pytest.fixture
def run_main(tmp_path, monkeypatch):
    """Callable ``run_main(*args)`` that runs ``cli.main(args)`` in this
    process with ``tmp_path`` as the working directory and returns a
    CompletedProcess of the exit code and the captured stdout and stderr.

    An argparse exit (``--help``, a usage error) is its code.  Unlike a
    child's, a RuntimeWarning of the run fails the test."""
    monkeypatch.chdir(tmp_path)

    def run(*args: str) -> subprocess.CompletedProcess:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:
                code = exc.code
        return subprocess.CompletedProcess(["qrmirror", *args], code,
                                           out.getvalue(), err.getvalue())

    return run


@pytest.fixture(scope="session")
def registry_table():
    """Callable: row name of ``cli._mirror_registry()`` -> the solver table
    of that mirror, the one ``reproduce`` builds, built on first use and
    at most once per session."""
    mirrors = _mirror_registry()
    return functools.cache(lambda name: build_solver_table(mirrors[name]))


def _registry_fixture(name: str):
    def table(registry_table):
        return registry_table(name)
    return pytest.fixture(scope="session")(table)


pc_table = _registry_fixture("perfect_conductor")
silicon_table = _registry_fixture("silicon")
silica_table = _registry_fixture("silica")
slab_table = _registry_fixture("silica_slab_5nm")
graphene_table = _registry_fixture("graphene")
nanodiamond_table = _registry_fixture("nanodiamond_p95")
porous_silicon_table = _registry_fixture("porous_silicon_p95")
aerogel_table = _registry_fixture("silica_aerogel_p98")


@pytest.fixture(scope="session")
def pure_c4_table():
    """Synthetic -C4/z^4 with the perfect-conductor retarded coefficient."""
    return PotentialTable.from_power_law(73.6, 4.0, 1e-8, 1e7, 480)


@pytest.fixture(scope="session")
def pure_c3_table():
    """Synthetic -C3/z^3 with the perfect-conductor van der Waals coefficient."""
    return PotentialTable.from_power_law(0.25, 3.0, 1e-8, 1e7, 480)


@pytest.fixture(scope="session")
def landings_beyond():
    """Callable ``landings_beyond(table, energy)`` -> (r, landed): r of
    ``solve_reflection`` and, for every grid point z_j in (z_l, 10 z_l], r
    landed there (``reflection._land``) after a march from the solve's
    launch with stops (z_end_min, z_j).  Each is referenced to the solve's
    z_end_min, so each must be the solve's r."""
    def run(table, energy):
        _, i_launch, i_end_min, i_land, sigma = reflection._wkb_bounds(
            table, energy)
        z = table.z
        landed = []
        for j in np.flatnonzero((z > z[i_land]) & (z <= 10.0 * z[i_land])):
            (*_, phi0, _), (_, cp, cm, phi, _) = reflection._march(
                table, energy, float(z[i_launch]), complex(sigma[i_launch]),
                (float(z[i_end_min]), float(z[j])))
            landed.append(reflection._land(cp, cm, phi, complex(sigma[j]),
                                           phi0))
        return reflection.solve_reflection(table, energy).r, landed

    return run
