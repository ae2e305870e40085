"""Complex scattering length and gravitational-quantum-state lifetimes.

Near threshold the reflection loss obeys 1 - |r|^2 = 4 k |Im a| + O(k^2),
with k = sqrt(2mE)/hbar, which fixes the magnitude of the imaginary part of
the scattering length; the sign convention Im a < 0 encodes net absorption
by the annihilating surface.  Atoms settled in the lowest gravitationally
bound states above the mirror share a single lifetime

    tau = hbar / (2 m g |Im a|)

whose constant factor is validated against the reference lifetime table in
the acceptance suite rather than taken on trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import CONSTANTS
from .potential import PotentialTable
from .reflection import solve_reflection

_M = CONSTANTS.mass_au
_LINEARITY_TOL = 0.05   # allowed relative spread of the two threshold estimates


class ExtractionError(RuntimeError):
    """Raised when the threshold-law extraction leaves the linear regime."""


@dataclass
class ScatteringLength:
    """Complex scattering length a (a0); imaginary part from the threshold law.

    The modulus-based extraction determines only Im a; the real part is not
    resolved and is stored as zero.
    """

    a: complex
    source_energies_au: tuple[float, float]
    estimates: tuple[float, float]       # |Im a| at the two energies
    linear_deviation: float              # relative spread of the estimates

    @property
    def im_a_nm(self) -> float:
        return self.a.imag * CONSTANTS.bohr_nm


@dataclass
class LifetimeResult:
    tau_s: float
    mirror_label: str
    scattering: ScatteringLength


def scattering_length(table: PotentialTable,
                      heights_m: tuple[float, float] = (1e-7, 4e-7)
                      ) -> ScatteringLength:
    """Extract a = -i |Im a| from reflection losses at two small energies.

    With h2 = 4 h1 the wavevectors satisfy k2 = 2 k1 and the Richardson
    extrapolation 2*est(k1) - est(k2) removes the O(k) correction.  If the
    two single-energy estimates differ by more than _LINEARITY_TOL (5%) the
    extraction retries once at 10x smaller heights, then fails.
    """
    h1, h2 = heights_m
    if not 0 < h1 < h2:
        raise ValueError("need 0 < h1 < h2")
    if table.is_null:
        return ScatteringLength(a=0.0j, source_energies_au=(0.0, 0.0),
                                estimates=(0.0, 0.0), linear_deviation=0.0)
    # one retry at 10x smaller heights if the first pair is not linear
    for h1, h2 in ((h1, h2), (h1 / 10.0, h2 / 10.0)):
        energies = (CONSTANTS.energy_au_from_height(h1),
                    CONSTANTS.energy_au_from_height(h2))
        estimates = []
        for energy in energies:
            res = solve_reflection(table, energy)
            k = math.sqrt(2.0 * _M * energy)
            estimates.append(res.loss / (4.0 * k))
        e1, e2 = estimates
        scale = max(abs(e1), abs(e2))
        if scale == 0.0:
            return ScatteringLength(a=0.0j, source_energies_au=energies,
                                    estimates=(e1, e2), linear_deviation=0.0)
        deviation = abs(e1 - e2) / scale
        if deviation <= _LINEARITY_TOL:
            break
    else:
        raise ExtractionError(
            f"{table.label}: threshold estimates differ by {deviation:.1%} "
            f"(> {_LINEARITY_TOL:.0%}) at h = {h1:g}, {h2:g} m: "
            f"not in the linear regime"
        )
    k1 = math.sqrt(2.0 * _M * energies[0])
    k2 = math.sqrt(2.0 * _M * energies[1])
    im_a = (k2 * e1 - k1 * e2) / (k2 - k1)   # extrapolated to k -> 0
    return ScatteringLength(a=complex(0.0, -im_a),
                            source_energies_au=energies,
                            estimates=(e1, e2),
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
    """Convenience chain: threshold extraction then lifetime."""
    return gqs_lifetime(scattering_length(table), mirror_label=table.label)
