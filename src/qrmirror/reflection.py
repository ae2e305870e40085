"""Quantum reflection on a tabulated Casimir-Polder potential.

The vertical Schrodinger equation is rewritten in the basis of WKB waves
exp(+i phi)/sqrt(p) (moving away from the mirror) and exp(-i phi)/sqrt(p)
(falling toward it), with phi' = p/hbar and p = sqrt(2m(E - V)).  The
amplitudes obey coupled first-order equations

    c+' = e^{-2i phi} (p'/2p) c-          c-' = e^{+2i phi} (p'/2p) c+

whose exchange term is what quantum reflection is.  Annihilation on contact
imposes full absorption at the surface, c+(z -> 0) = 0, and the reflection
amplitude is r = c+/c- far from the mirror.  |c-|^2 - |c+|^2 is an exact
invariant of the equations and is used as the primary step-control check.

The WKB waves are exact wherever the badlands function

    Q = hbar^2 [ p''/p - (3/2)(p'/p)^2 ] / (2 p^2)

vanishes; the WKB-exact endpoints z_start and z_end_min are where |Q| is
below _EDGE_TOL = 1e-8, which for CP potentials happens both near the
surface and far away.  Between z_start and about 1 a0 no reflection
happens, only WKB oscillations, so the integration does not step through
them: it starts at the launch point z_m, the last grid point before the
badlands peak up to which the second-order WKB incoming wave is exact to
_EDGE_TOL/4, and carries only the phase over [z_start, z_m].  r is
referenced to z0 = z_end_min, so it does not depend on where the solve
happens to stop.  Attractive potentials have no classical turning point,
so no tunneling machinery is needed; the gravity field itself is not part
of the solver potential (E is the fixed incident energy from the free
fall).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import CONSTANTS
from .potential import PotentialTable

_M = CONSTANTS.mass_au
_GL16_X, _GL16_W = leggauss(16)

# tolerances and step limits of the amplitude solver
_EDGE_TOL = 1e-8          # |Q| defining the WKB-exact endpoints
_R_TOL = 1e-4             # r convergence over the last decade of z
_RK_RTOL = 1e-7
_RK_ATOL = 1e-10
_FLUX_TOL = 1e-6          # allowed drift of |c-|^2 - |c+|^2
_PHASE_STEP_FRAC = 0.5    # max step as fraction of pi hbar / p
_Z_STEP_FRAC = 0.2        # max step as fraction of z
_MAX_STEPS = 5_000_000


class SolveError(RuntimeError):
    """Raised when an amplitude integration cannot be completed/accepted."""


# ---------------------------------------------------------------------------
# badlands function


@dataclass
class BadlandsProfile:
    z: np.ndarray
    q: np.ndarray
    peak_z: float
    peak_q: float
    energy_au: float


def badlands_q(table: PotentialTable, energy_au: float, z_au):
    """Q(z) evaluated from analytic derivatives of the table interpolant."""
    if not 0 < energy_au < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_au}")
    z = np.asarray(z_au, dtype=float)
    v, vp, vpp = table.derivatives(z)
    p_sq = 2.0 * _M * (energy_au - v)
    p = np.sqrt(p_sq)
    dp = -_M * vp / p
    d2p = -_M * vpp / p - _M**2 * vp * vp / (p * p_sq)
    schwarzian = d2p / p - 1.5 * (dp / p) ** 2
    q = schwarzian / (2.0 * p_sq)
    return q if q.ndim else float(q)


def badlands_profile(table: PotentialTable, energy_au: float) -> BadlandsProfile:
    """Q sampled on the table grid, with its peak location and height."""
    q = badlands_q(table, energy_au, table.z)
    i = int(np.argmax(np.abs(q)))
    return BadlandsProfile(z=table.z.copy(), q=q, peak_z=float(table.z[i]),
                           peak_q=float(q[i]), energy_au=energy_au)


# ---------------------------------------------------------------------------
# amplitude-equation solver


@dataclass(frozen=True)
class SolveOptions:
    """Probes of the solve's invariants: |r| must not depend on any of them."""

    z_start: float | None = None  # override the Q-selected start
    z_end_min: float | None = None  # override the Q-selected earliest end
    phase_origin: float = 0.0     # phi at z_start


@dataclass
class ReflectionResult:
    r: complex                    # phase referenced to z0 = Q-selected z_end_min
    probability: float            # |r|^2
    loss: float                   # 1 - |r|^2
    energy_au: float
    z_start: float
    z_end: float
    flux_drift: float
    steps: int
    rejected: int


def _wkb_bounds(table: PotentialTable,
                energy_au: float) -> tuple[float, float, float]:
    """(z_start, z_m, z_end_min): the WKB-exact endpoints, where |Q| is below
    _EDGE_TOL on both flanks, and the launch point z_m.

    Uses prefix/suffix running maxima of |Q| so an accidental zero crossing
    inside the badlands cannot be mistaken for the WKB-exact region.  z_m is
    the last grid point before the peak up to which the running maximum of
    |Q'|/8p, the term the second-order launch drops, stays within
    _EDGE_TOL/4, the error of a first-order launch at z_start.
    """
    q_signed = badlands_q(table, energy_au, table.z)
    q = np.abs(q_signed)
    i_peak = int(np.argmax(q))
    prefix_ok = np.maximum.accumulate(q) <= _EDGE_TOL
    start_candidates = np.nonzero(prefix_ok[: i_peak + 1])[0]
    if start_candidates.size == 0:
        raise SolveError(
            f"no WKB-exact region below the badlands peak: |Q| >= "
            f"{q[0]:.2e} at the near edge of the table (need {_EDGE_TOL:g})"
        )
    suffix_ok = (np.maximum.accumulate(q[::-1]) <= _EDGE_TOL)[::-1]
    end_candidates = np.nonzero(suffix_ok)[0]
    end_candidates = end_candidates[end_candidates > i_peak]
    if end_candidates.size == 0:
        raise SolveError(
            f"no WKB-exact region beyond the badlands peak: |Q| >= "
            f"{q[-1]:.2e} at the far edge of the table (need {_EDGE_TOL:g})"
        )
    p = np.sqrt(2.0 * _M * (energy_au - table.V[: i_peak + 1]))
    dropped = np.abs(np.gradient(q_signed, table.z)[: i_peak + 1]) / (8.0 * p)
    launch_candidates = np.nonzero(
        np.maximum.accumulate(dropped) <= 0.25 * _EDGE_TOL)[0]
    i_m = launch_candidates[-1] if launch_candidates.size else 0
    return (float(table.z[start_candidates[-1]]), float(table.z[i_m]),
            float(table.z[end_candidates[0]]))


def _phase(table: PotentialTable, energy_au: float,
           z1: float, z2: float) -> float:
    """Integral of p(z) over [z1, z2] by 16-point Gauss-Legendre on panels
    of ln z at most 0.5 wide."""
    t1, t2 = math.log(z1), math.log(z2)
    edges = np.linspace(t1, t2, max(1, math.ceil(abs(t2 - t1) / 0.5)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    z = np.exp(edges[:-1, None] + half * (1.0 + _GL16_X))
    p = np.sqrt(2.0 * _M * (energy_au - table.potential(z)))
    return float(np.sum(half * _GL16_W * p * z))


def _launch_ratio(table: PotentialTable, energy_au: float,
                  z: float) -> complex:
    """sigma = c+ e^{2i phi}/c- of the second-order WKB incoming wave at z.

    The wave e^{-i int W}/sqrt(W) with W = p(1 - Q/2) solves the Schrodinger
    equation up to a term |Q'|/8p in sigma.  Its log-derivative y, projected
    onto the amplitude gauge (psi' = i p (c+ e^{i phi} - c- e^{-i phi})/
    (hbar sqrt(p))), gives sigma = (ip + y)/(ip - y) =
    (iQ/2 - beta)/(2i - iQ/2 + beta) with beta = hbar p'/2p^2.
    """
    v, vp, _ = table.derivatives_scalar(z)
    p = math.sqrt(2.0 * _M * (energy_au - v))
    beta = -_M * vp / (2.0 * p**3)
    q = badlands_q(table, energy_au, z)
    return (0.5j * q - beta) / (2j - 0.5j * q + beta)


# Cash-Karp embedded 5(4) pair.
_CK_C2, _CK_C3, _CK_C4, _CK_C5, _CK_C6 = 1 / 5, 3 / 10, 3 / 5, 1.0, 7 / 8
_CK_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (3 / 10, -9 / 10, 6 / 5),
    (-11 / 54, 5 / 2, -70 / 27, 35 / 27),
    (1631 / 55296, 175 / 512, 575 / 13824, 44275 / 110592, 253 / 4096),
)
_CK_B5 = (37 / 378, 0.0, 250 / 621, 125 / 594, 0.0, 512 / 1771)
_CK_B4 = (2825 / 27648, 0.0, 18575 / 48384, 13525 / 55296, 277 / 14336, 1 / 4)
_CK_ERR = tuple(b5 - b4 for b5, b4 in zip(_CK_B5, _CK_B4))

_CHECKPOINT_RATIO = 10.0 ** 0.125


def solve_reflection(table: PotentialTable, energy_au: float,
                     opts: SolveOptions | None = None) -> ReflectionResult:
    """Integrate the coupled amplitude equations outward and return r.

    Starts from the launch point z_m (or z_start, if that lies further out)
    in the absorbing state (purely incoming flux, the finite-z form of
    c+(0) = 0; see the launch comment below), advances phi by the same
    embedded quadrature as the amplitudes, and stops once |Q| < _EDGE_TOL
    and r has stopped changing (relative change below _R_TOL across the
    trailing decade of z).
    """
    opts = opts or SolveOptions()
    if not 0 < energy_au < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_au}")
    if table.is_null:
        return ReflectionResult(r=0.0j, probability=0.0, loss=1.0,
                                energy_au=energy_au, z_start=table.z_min,
                                z_end=table.z_max, flux_drift=0.0,
                                steps=0, rejected=0)

    z_start, z_m, z_ref = _wkb_bounds(table, energy_au)
    if opts.z_start is not None:
        if not table.z_min <= opts.z_start < table.z_max:
            raise SolveError(f"z_start override {opts.z_start:g} outside table")
        z_start = opts.z_start
    z_end_min = z_ref if opts.z_end_min is None else opts.z_end_min
    z_hard_end = table.z_max

    # constants bound to locals: rhs and max_step are the hot loop
    mass = _M
    two_m = 2.0 * mass
    deriv = table.derivatives_scalar

    def rhs(z: float, cp: complex, cm: complex, phi: float):
        v, vp, _ = deriv(z)
        p = math.sqrt(two_m * (energy_au - v))
        g = -mass * vp / (2.0 * p * p)
        e = cmath.exp(-2j * phi)
        return g * e * cm, g * e.conjugate() * cp, p

    # Launch state: the second-order WKB incoming wave (see _launch_ratio),
    # normalised to |c-|^2 - |c+|^2 = 1.  It is not c+ = 0: c+ -> 0 only as
    # z -> 0, the full absorption at the surface.  Its error |Q'|/8p stays
    # within _EDGE_TOL/4 up to z_m, so [z_start, z_m] enters only through
    # its phase integral.
    z = max(z_start, z_m)
    phi = opts.phase_origin + _phase(table, energy_au, z_start, z)
    sigma = _launch_ratio(table, energy_au, z)
    cm = 1.0 / math.sqrt(1.0 - abs(sigma) ** 2)
    cp = sigma * cmath.exp(-2j * phi) * cm
    p0 = math.sqrt(two_m * (energy_au - deriv(z)[0]))

    phase_step_frac, z_step_frac = _PHASE_STEP_FRAC, _Z_STEP_FRAC

    def max_step(zc: float, pc: float) -> float:
        return min(phase_step_frac * math.pi / pc,
                   z_step_frac * zc,
                   z_hard_end - zc)

    h = 0.01 * max_step(z, p0)
    atol, rtol = _RK_ATOL, _RK_RTOL
    flux_drift = 0.0
    steps = rejected = 0
    next_checkpoint = z * _CHECKPOINT_RATIO
    history: list[tuple[float, complex]] = []
    converged = False

    while True:
        if steps + rejected > _MAX_STEPS:
            raise SolveError(f"step budget exceeded at z = {z:g}")
        # Cash-Karp stages
        k1 = rhs(z, cp, cm, phi)
        k2 = rhs(z + _CK_C2 * h,
                 cp + h * (_CK_A[0][0] * k1[0]),
                 cm + h * (_CK_A[0][0] * k1[1]),
                 phi + h * (_CK_A[0][0] * k1[2]))
        k3 = rhs(z + _CK_C3 * h,
                 cp + h * (_CK_A[1][0] * k1[0] + _CK_A[1][1] * k2[0]),
                 cm + h * (_CK_A[1][0] * k1[1] + _CK_A[1][1] * k2[1]),
                 phi + h * (_CK_A[1][0] * k1[2] + _CK_A[1][1] * k2[2]))
        k4 = rhs(z + _CK_C4 * h,
                 cp + h * (_CK_A[2][0] * k1[0] + _CK_A[2][1] * k2[0] + _CK_A[2][2] * k3[0]),
                 cm + h * (_CK_A[2][0] * k1[1] + _CK_A[2][1] * k2[1] + _CK_A[2][2] * k3[1]),
                 phi + h * (_CK_A[2][0] * k1[2] + _CK_A[2][1] * k2[2] + _CK_A[2][2] * k3[2]))
        k5 = rhs(z + _CK_C5 * h,
                 cp + h * (_CK_A[3][0] * k1[0] + _CK_A[3][1] * k2[0] + _CK_A[3][2] * k3[0] + _CK_A[3][3] * k4[0]),
                 cm + h * (_CK_A[3][0] * k1[1] + _CK_A[3][1] * k2[1] + _CK_A[3][2] * k3[1] + _CK_A[3][3] * k4[1]),
                 phi + h * (_CK_A[3][0] * k1[2] + _CK_A[3][1] * k2[2] + _CK_A[3][2] * k3[2] + _CK_A[3][3] * k4[2]))
        k6 = rhs(z + _CK_C6 * h,
                 cp + h * (_CK_A[4][0] * k1[0] + _CK_A[4][1] * k2[0] + _CK_A[4][2] * k3[0] + _CK_A[4][3] * k4[0] + _CK_A[4][4] * k5[0]),
                 cm + h * (_CK_A[4][0] * k1[1] + _CK_A[4][1] * k2[1] + _CK_A[4][2] * k3[1] + _CK_A[4][3] * k4[1] + _CK_A[4][4] * k5[1]),
                 phi + h * (_CK_A[4][0] * k1[2] + _CK_A[4][1] * k2[2] + _CK_A[4][2] * k3[2] + _CK_A[4][3] * k4[2] + _CK_A[4][4] * k5[2]))

        ks = (k1, k2, k3, k4, k5, k6)
        new_cp = cp + h * sum(b * k[0] for b, k in zip(_CK_B5, ks))
        new_cm = cm + h * sum(b * k[1] for b, k in zip(_CK_B5, ks))
        new_phi = phi + h * sum(b * k[2] for b, k in zip(_CK_B5, ks))
        err_cp = h * sum(b * k[0] for b, k in zip(_CK_ERR, ks))
        err_cm = h * sum(b * k[1] for b, k in zip(_CK_ERR, ks))
        err_phi = h * sum(b * k[2] for b, k in zip(_CK_ERR, ks))

        err = max(
            abs(err_cp) / (atol + rtol * max(abs(cp), abs(new_cp))),
            abs(err_cm) / (atol + rtol * max(abs(cm), abs(new_cm))),
            abs(err_phi) / (atol + rtol * max(abs(phi), abs(new_phi))),
        )
        if err <= 1.0:
            z += h
            cp, cm, phi = new_cp, new_cm, new_phi
            steps += 1
            flux_drift = max(flux_drift,
                             abs((abs(cm) ** 2 - abs(cp) ** 2) - 1.0))
            # r-convergence bookkeeping on geometric checkpoints
            if z >= next_checkpoint or z >= z_hard_end:
                r_now = cp / cm
                history.append((z, r_now))
                next_checkpoint = z * _CHECKPOINT_RATIO
                if z >= z_end_min:
                    decade = [rv for zv, rv in history if zv <= z / 10.0]
                    recent = [rv for zv, rv in history if zv > z / 10.0]
                    if decade:
                        ref = max(abs(r_now), 1e-12)
                        dev = max(abs(rv - r_now) for rv in (recent + decade[-1:]))
                        if dev <= _R_TOL * ref:
                            converged = True
                            break
            if z >= z_hard_end:
                break
        else:
            rejected += 1
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = min(h * min(max(factor, 0.2), 5.0), max_step(z, k1[2]))
        if h <= 0 or z + h == z:
            raise SolveError(f"step size underflow at z = {z:g}")

    if not converged:
        raise SolveError(
            f"r did not converge to {_R_TOL:g} before the table end "
            f"(z = {z:g}); extend the grid"
        )
    if flux_drift > _FLUX_TOL:
        raise SolveError(
            f"flux drift {flux_drift:.2e} exceeds {_FLUX_TOL:g}: "
            f"step control failure"
        )
    # phase reference z0 = the Q-selected z_end_min, not z_end: far out each
    # step advances 2 phi by pi, so r referenced to z_end would flip sign
    # with the parity of the step count
    r = (cp / cm) * cmath.exp(2j * (phi - _phase(table, energy_au, z_ref, z)))
    prob = abs(r) ** 2
    return ReflectionResult(r=r, probability=prob, loss=1.0 - prob,
                            energy_au=energy_au, z_start=z_start,
                            z_end=z, flux_drift=flux_drift,
                            steps=steps, rejected=rejected)


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class SweepPoint:
    energy_au: float
    height_m: float | None
    result: ReflectionResult | None
    error: str | None = None


def reflection_sweep(table: PotentialTable,
                     energies_au=None, heights_m=None) -> list[SweepPoint]:
    """Solve per energy (or free-fall height), in input order.

    Per-point failures are recorded without aborting the sweep.  Results are
    deterministic functions of (table, energy), independent of the
    order in which points are run.
    """
    if (energies_au is None) == (heights_m is None):
        raise ValueError("give exactly one of energies_au or heights_m")
    if heights_m is not None:
        pairs = [(CONSTANTS.energy_au_from_height(h), h) for h in heights_m]
    else:
        pairs = [(e, None) for e in energies_au]
    points: list[SweepPoint] = []
    for energy, height in pairs:
        try:
            res = solve_reflection(table, energy)
            points.append(SweepPoint(energy, height, res))
        except (SolveError, ValueError) as exc:
            points.append(SweepPoint(energy, height, None, error=str(exc)))
    return points
