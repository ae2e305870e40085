"""Complex scattering length and gravitational-quantum-state lifetimes.

The scattering length comes from one zero-energy solve.  At E = 0 the
wavefunction far from the mirror is linear, psi ~ z - a, so a = z -
psi/psi' read there; the sign convention Im a < 0 encodes net absorption
by the annihilating surface.  Near threshold the reflection loss then
obeys 1 - |r|^2 = 4 k |Im a| + O(k^2), k = sqrt(2mE)/hbar, and Re a sets
the level shifts of the gravitational states (Voronin, Froelich &
Nesvizhevsky, PRA 83, 032903, 2011).  Atoms settled in the lowest
gravitationally bound states above the mirror share a single lifetime

    tau = hbar / (2 m g |Im a|)

whose constant factor is validated against the reference lifetime table in
the acceptance suite rather than taken on trust.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .potential import PotentialTable
from .reflection import _EDGE_TOL, _march, _wkb_ends

_M = CONSTANTS.mass_au
# a is read at these two panel edges (a0).  Far out at E = 0 the WKB
# amplitudes grow about as z while psi' cancels between them: 4x the panels
# moves a by at most 2.1e-6 of |a| read at 1e6 a0, by up to about 4e-4 at
# 1e7 a0.
_READ_OUTS_A0 = (1e5, 1e6)
# the largest relative change of |Im a| between the read-outs
_R_TOL = 1e-4


class ExtractionError(RuntimeError):
    """Raised when the scattering length does not settle on the table."""


@dataclass
class ScatteringLength:
    """Complex scattering length a (a0) from the zero-energy solve.

    ``estimates`` holds |Im a| at the two read-outs and
    ``linear_deviation`` their relative spread; ``source_energies_au`` is
    (0.0,), the energy of the one solve.
    """

    a: complex
    source_energies_au: tuple[float, ...]
    estimates: tuple[float, float]       # |Im a| at the two read-outs
    linear_deviation: float              # relative spread of the estimates

    @property
    def re_a_nm(self) -> float:
        return self.a.real * CONSTANTS.bohr_nm

    @property
    def im_a_nm(self) -> float:
        return self.a.imag * CONSTANTS.bohr_nm


@dataclass
class LifetimeResult:
    tau_s: float
    mirror_label: str
    scattering: ScatteringLength


def scattering_length(table: PotentialTable) -> ScatteringLength:
    """a from one E = 0 solve, read at _READ_OUTS_A0.

    The solve launches at the last grid point up to which the fourth-order
    WKB incoming wave is exact to _EDGE_TOL/4 (``reflection._wkb_ends`` on
    the grid below the first read-out) and marches out from there as
    ``solve_reflection`` does (``reflection._march``), with the read-outs
    as its stops.  At each read-out a = z - psi/psi', with
    psi' = i p (c+ e^{i phi} - c- e^{-i phi})/sqrt(p).  On a -C4/z^4 tail
    a - a_inf = 2 m C4/z + ..., real, so one 1/z step between the read-outs
    gives Re a; Im a is that of the last read-out.  A table that ends
    before the read-outs, or on which |Im a| changes by more than _R_TOL
    between them, raises ExtractionError.
    """
    if table.is_null:
        return ScatteringLength(a=0.0j, source_energies_au=(0.0,),
                                estimates=(0.0, 0.0), linear_deviation=0.0)
    z1, z2 = _READ_OUTS_A0
    grid = table.z[table.z < z1]
    if table.z_max < z2 or grid.size == 0:
        raise ExtractionError(
            f"{table.label}: the table [{table.z_min:g}, {table.z_max:g}] a0 "
            f"does not hold the read-outs of a at {z1:g} and {z2:g} a0")
    i, _, sigma = _wkb_ends(0.0, grid, table.grid_taylor[:, :grid.size],
                            grid.size - 1)
    if i < 0:
        raise ExtractionError(
            f"{table.label}: the zero-energy WKB wave is not exact to "
            f"{0.25 * _EDGE_TOL:g} at the near edge z = {table.z_min:g} a0")
    reads = []
    for z, cp, cm, phi, _ in _march(table, 0.0, float(grid[i]), sigma[i],
                                    _READ_OUTS_A0):
        w = cp * cmath.exp(2j * phi)
        p = math.sqrt(-2.0 * _M * table.derivatives_scalar(z)[0])
        reads.append(z - (w + cm) / (1j * p * (w - cm)))
    a1, a2 = reads
    e1, e2 = -a1.imag, -a2.imag
    deviation = abs(e1 - e2) / max(abs(e1), abs(e2))
    if deviation > _R_TOL:
        raise ExtractionError(
            f"{table.label}: |Im a| changes by {deviation:.2e} (> {_R_TOL:g}) "
            f"between z = {z1:g} and {z2:g} a0: a did not settle")
    re_a = (z2 * a2.real - z1 * a1.real) / (z2 - z1)
    return ScatteringLength(a=complex(re_a, a2.imag),
                            source_energies_au=(0.0,), estimates=(e1, e2),
                            linear_deviation=deviation)


def gqs_lifetime(scattering: ScatteringLength,
                 mirror_label: str = "") -> LifetimeResult:
    """Lifetime of the lowest gravitational quantum states above the mirror.

    tau = hbar / (2 m g |Im a|); a vanishing Im a (free space) yields the
    infinite-lifetime sentinel, a positive Im a is rejected.
    """
    im_a = scattering.a.imag
    if im_a > 0:
        raise ValueError(f"Im a must be <= 0 (absorption), got {im_a:g}")
    if im_a == 0.0:
        return LifetimeResult(tau_s=math.inf, mirror_label=mirror_label,
                              scattering=scattering)
    im_a_m = abs(im_a) * CONSTANTS.bohr
    tau = CONSTANTS.hbar / (2.0 * CONSTANTS.m * CONSTANTS.g * im_a_m)
    return LifetimeResult(tau_s=tau, mirror_label=mirror_label,
                          scattering=scattering)


def lifetime_for_table(table: PotentialTable) -> LifetimeResult:
    """Convenience chain: zero-energy scattering length then lifetime."""
    return gqs_lifetime(scattering_length(table), mirror_label=table.label)
