"""Electromagnetic response on the imaginary frequency axis.

Dielectric functions are oscillator sums

    eps(i*xi) = 1 + sum_j  wp_j^2 / (w0_j^2 + xi^2 + gamma_j * xi)

which are real, >= 1 and monotonically non-increasing for xi >= 0.  The
atomic polarizability, Fresnel amplitudes at imaginary frequency, finite
slab and conducting sheet reflection amplitudes, and Bruggeman effective
medium mixing live here as well, together with the material file loader.
A material file describes one dielectric; the two mirrors that are not
dielectrics, the perfect conductor and the graphene sheet, have no file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import CONSTANTS

_MATERIALS_DIR = Path(__file__).parent / "materials"


class MaterialFileError(ValueError):
    """Raised when a material file fails to parse or validate."""


@dataclass(frozen=True)
class Oscillator:
    """One Lorentz oscillator: (wp^2 [Eh^2], w0^2 [Eh^2], gamma [Eh])."""

    plasma_sq: float
    resonance_sq: float
    damping: float = 0.0

    def validate(self) -> None:
        values = (self.plasma_sq, self.resonance_sq, self.damping)
        if not all(math.isfinite(v) for v in values):
            raise MaterialFileError(f"non-finite oscillator value in {values}")
        if self.plasma_sq < 0:
            raise MaterialFileError(f"negative oscillator strength {self.plasma_sq}")
        if self.resonance_sq <= 0:
            raise MaterialFileError(f"non-positive resonance {self.resonance_sq}")
        if self.damping < 0:
            raise MaterialFileError(f"negative damping {self.damping}")


@dataclass(frozen=True)
class DielectricModel:
    """Oscillator model of a bulk medium.  Empty oscillator list = vacuum."""

    name: str
    oscillators: tuple[Oscillator, ...] = ()

    def __post_init__(self):
        for osc in self.oscillators:
            osc.validate()

    def epsilon(self, xi):
        """eps(i*xi); accepts scalars or arrays, xi >= 0."""
        xi = np.asarray(xi, dtype=float)
        eps = np.ones_like(xi)
        for osc in self.oscillators:
            eps = eps + osc.plasma_sq / (osc.resonance_sq + xi * xi + osc.damping * xi)
        return eps[()]

    @property
    def static_epsilon(self) -> float:
        return float(self.epsilon(0.0))

    @property
    def wavelength_au(self) -> float | None:
        """c / w0 of the dominant oscillator (largest static contribution)."""
        if not self.oscillators:
            return None
        dom = max(self.oscillators, key=lambda o: o.plasma_sq / o.resonance_sq)
        return CONSTANTS.c_au / math.sqrt(dom.resonance_sq)

    @property
    def is_vacuum(self) -> bool:
        return not self.oscillators


@dataclass(frozen=True)
class Polarizability:
    """Atomic dynamic polarizability as a sum of Lorentzians.

    oscillators are (strength [a0^3], resonance [Eh]) pairs:
    alpha(i*xi) = sum_j s_j / (1 + (xi/w_j)^2).
    """

    oscillators: tuple[tuple[float, float], ...]

    def alpha(self, xi):
        xi = np.asarray(xi, dtype=float)
        a = np.zeros_like(xi)
        # u * u, not u ** 2: on an array ** 2 is u * u, on a float it is
        # pow(), which may differ in the last bit
        for s, w in self.oscillators:
            u = xi / w
            a = a + s / (1.0 + u * u)
        return a[()]

    @property
    def static(self) -> float:
        return sum(s for s, _ in self.oscillators)

    @property
    def integral(self) -> float:
        """Exact integral of alpha(i*xi) over xi in [0, inf)."""
        return sum(s * w * math.pi / 2.0 for s, w in self.oscillators)


# Single-Lorentzian ground-state hydrogen default: alpha(0) = 4.5 a0^3 with
# the resonance placed so that (1/4pi) * integral alpha = 0.25 Eh a0^3.
DEFAULT_POLARIZABILITY = Polarizability(((4.5, 4.0 / 9.0),))


@dataclass(frozen=True)
class SheetModel:
    """Conducting sheet of dimensionless conductivity eta = sigma/(eps0 c)."""

    eta: float

    def __post_init__(self):
        if not 0 <= self.eta < math.inf:
            raise ValueError("sheet conductivity must be finite and >= 0, "
                             f"got {self.eta}")


def graphene_sheet() -> SheetModel:
    """Constant universal conductivity sigma = e^2/(4 hbar), eta = pi*alpha."""
    return SheetModel(eta=math.pi * CONSTANTS.fine_structure)


def fresnel(eps, kappa):
    """Fresnel amplitudes (r_TM, r_TE) at imaginary frequency.

    kappa >= 1 is the transverse variable; with s = sqrt(kappa^2 - 1 + eps):
    r_TM = (eps*kappa - s)/(eps*kappa + s), r_TE = (kappa - s)/(kappa + s).
    For eps >= 1 these satisfy 0 <= r_TM <= 1 and -1 <= r_TE <= 0.
    """
    return _fresnel_s(np.asarray(eps, dtype=float),
                      np.asarray(kappa, dtype=float))[:2]


def _fresnel_s(eps, kappa):
    """(r_TM, r_TE, s) of ``fresnel``; the slab amplitude reuses s."""
    s = np.sqrt(kappa * kappa - 1.0 + eps)
    return (eps * kappa - s) / (eps * kappa + s), (kappa - s) / (kappa + s), s


def slab_reflection(model: DielectricModel, thickness_au: float, xi, kappa):
    """Reflection amplitudes of a slab of finite thickness d in vacuum.

    r_slab = r * (1 - e^{-2 delta}) / (1 - r^2 e^{-2 delta}) per polarization,
    with delta = (xi d / c) * sqrt(kappa^2 - 1 + eps); |r_slab| <= |r_bulk|.
    """
    if thickness_au <= 0:
        raise ValueError(f"slab thickness must be positive, got {thickness_au}")
    xi = np.asarray(xi, dtype=float)
    r_tm, r_te, s = _fresnel_s(model.epsilon(xi), np.asarray(kappa, dtype=float))
    minus_two_delta = -2.0 * xi * thickness_au / CONSTANTS.c_au * s
    decay = np.exp(minus_two_delta)
    grow = -np.expm1(minus_two_delta)  # 1 - e^{-2 delta}
    r_tm_slab = r_tm * grow / (1.0 - r_tm * r_tm * decay)
    r_te_slab = r_te * grow / (1.0 - r_te * r_te * decay)
    return r_tm_slab, r_te_slab


def sheet_reflection(sheet: SheetModel, xi, kappa):
    """Reflection amplitudes of a conducting sheet (frequency independent).

    r_TM = (eta*kappa/2)/(1 + eta*kappa/2), r_TE = -(eta/2kappa)/(1 + eta/2kappa).
    """
    del xi  # constant-conductivity sheet: no dispersion
    kappa = np.asarray(kappa, dtype=float)
    x = 0.5 * sheet.eta * kappa
    y = 0.5 * sheet.eta / kappa
    r_tm = x / (1.0 + x)
    r_te = -y / (1.0 + y)
    return r_tm, r_te


def bruggeman_mix(host: DielectricModel, porosity: float, xi):
    """Effective dielectric function of a host/vacuum two-phase composite
    with vacuum fraction f = ``porosity`` in [0, 1].

    Solves (1-f)(e_m - e)/(e_m + 2e) + f(1 - e)/(1 + 2e) = 0 for the
    physical root e in [1, e_m]; reduces to a quadratic with positive root
    e = (b + sqrt(b^2 + 8 e_m))/4, b = 2 e_m - 1 - 3 f (e_m - 1), taken as
    2 e_m/(sqrt(b^2 + 8 e_m) + |b|) for b < 0 (f > 2/3 and e_m large),
    where the first form cancels.
    """
    if not 0.0 <= porosity <= 1.0:
        raise ValueError(f"porosity must be in [0, 1], got {porosity}")
    eps_m = host.epsilon(xi)
    f = porosity
    b = 2.0 * eps_m - 1.0 - 3.0 * f * (eps_m - 1.0)
    root = np.sqrt(b * b + 8.0 * eps_m)
    eps_eff = np.where(b >= 0, 0.25 * (b + root), 2 * eps_m / (root + abs(b)))
    return eps_eff[()]   # a scalar xi's 0-d np.where result as np.float64


def key_value_lines(path, error=MaterialFileError):
    """(``path:lineno``, lower-cased key, value) of each ``key = value`` line;
    ``#`` starts a comment.  An unreadable file, or a line without ``=``,
    raises ``error``.  Material, config and tolerance files use it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise error(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise error(f"{path}:{lineno}: expected 'key = value'")
        yield f"{path}:{lineno}", key.strip().lower(), value.strip()


def load_material_file(path) -> DielectricModel:
    """Parse a line-oriented material file into a DielectricModel.

    Format: ``name = <string>``, then one ``osc = wp2, w02, gamma`` line per
    oscillator (all in Hartree units); ``#`` starts a comment.  A file whose
    oscillator list is empty describes vacuum.  Any other key, ``kind``
    included, is an error.
    """
    name = None
    oscillators: list[Oscillator] = []
    for where, key, value in key_value_lines(path):
        if key == "name":
            name = value
        elif key == "osc":
            parts = [p.strip() for p in value.split(",")]
            if len(parts) != 3:
                raise MaterialFileError(
                    f"{where}: osc needs 'wp2, w02, gamma', got {value!r}"
                )
            try:
                wp2, w02, gamma = (float(p) for p in parts)
            except ValueError as exc:
                raise MaterialFileError(f"{where}: {exc}") from exc
            try:
                osc = Oscillator(wp2, w02, gamma)
                osc.validate()
            except MaterialFileError as exc:
                raise MaterialFileError(f"{where}: {exc}") from exc
            oscillators.append(osc)
        else:
            raise MaterialFileError(f"{where}: unknown key {key!r}")
    if name is None:
        raise MaterialFileError(f"{path}: missing 'name' entry")
    return DielectricModel(name=name, oscillators=tuple(oscillators))


def builtin_material_names() -> list[str]:
    """Names of the shipped material files."""
    return sorted(
        p.name for p in _MATERIALS_DIR.iterdir()
        if p.is_file() and not p.name.startswith(".") and p.name != "tolerances"
    )


def load_builtin(name: str) -> DielectricModel:
    """The shipped material ``name``, one of ``builtin_material_names()``."""
    names = builtin_material_names()
    if name not in names:
        raise MaterialFileError(
            f"unknown material {name!r}; shipped: {', '.join(names)}")
    return load_material_file(_MATERIALS_DIR / name)
