"""Physical constants and the internal unit system.

All physics modules compute in Hartree atomic units (hbar = m_e = e = 1,
c = 1/alpha).  Externally visible quantities are emitted both in atomic
units and in the neV/nm system convenient for cold-atom work.
"""

from __future__ import annotations

# Electron mass and elementary charge (SI), used only to tie the atomic
# unit system to the laboratory one.
_ELECTRON_MASS_KG = 9.1093837015e-31
_ELEMENTARY_CHARGE_C = 1.602176634e-19


class PhysicalConstants:
    """Constants shared by every module, read through ``CONSTANTS``.

    Class-level values with no instance slots, so assigning to one on an
    instance raises AttributeError.  ``mg`` is pinned to the printed
    weight-per-height constant 102.5 neV/m rather than recomputed from
    ``m * g``; the two agree to 0.1%.
    """

    __slots__ = ()

    hbar = 1.054571817e-34          # J s
    m = 1.6735e-27                  # kg, (anti)hydrogen atom mass
    g = 9.806                       # m/s^2
    mg = 102.5                      # neV/m, pinned
    hartree = 4.3597e-18            # J
    bohr = 52.917e-12               # m
    fine_structure = 7.2973525693e-3

    @property
    def c_au(self) -> float:
        """Speed of light in atomic units (= 1/alpha = 137.036)."""
        return 1.0 / self.fine_structure

    @property
    def mass_au(self) -> float:
        """Atom mass in units of the electron mass."""
        return self.m / _ELECTRON_MASS_KG

    @property
    def hartree_eV(self) -> float:
        return self.hartree / _ELEMENTARY_CHARGE_C

    @property
    def hartree_neV(self) -> float:
        return self.hartree_eV * 1e9

    @property
    def bohr_nm(self) -> float:
        return self.bohr * 1e9

    def energy_au_from_height(self, h_m: float) -> float:
        """Kinetic energy (Hartree) gained in a free fall from height h (m)."""
        if h_m < 0:
            raise ValueError(f"height must be non-negative, got {h_m}")
        return self.mg * h_m / self.hartree_neV


CONSTANTS = PhysicalConstants()
