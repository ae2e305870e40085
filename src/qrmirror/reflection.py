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
badlands peak up to which the fourth-order WKB incoming wave is exact to
_EDGE_TOL/4, with phi = 0 there.  r does not depend on phi's origin, and
it is referenced to z0 = z_end_min, so it does not depend on where the
solve happens to stop either.  Attractive potentials have no classical
turning point, so no tunneling machinery is needed; the gravity field
itself is not part of the solver potential (E is the fixed incident
energy from the free fall).
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
_WKB_ORDER = 4            # order N of the launch wave's WKB series


class SolveError(RuntimeError):
    """Raised when an amplitude integration cannot be completed/accepted."""


# ---------------------------------------------------------------------------
# badlands function


@dataclass
class BadlandsProfile:
    q: np.ndarray
    peak_z: float
    peak_q: float


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
    return BadlandsProfile(q=q, peak_z=float(table.z[i]), peak_q=float(q[i]))


# ---------------------------------------------------------------------------
# amplitude-equation solver


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
                energy_au: float) -> tuple[float, float, complex, float]:
    """(z_start, z_launch, sigma, z_end_min): the WKB-exact endpoints, where
    |Q| is below _EDGE_TOL on both flanks, the launch point and the launch
    state sigma there (see _wkb_launch).

    Uses prefix/suffix running maxima of |Q| so an accidental zero crossing
    inside the badlands cannot be mistaken for the WKB-exact region.  The
    launch point is z_m, the last grid point before the peak up to which the
    running maximum of |y_{N+1}|/2p, the term the order-N launch drops,
    stays within _EDGE_TOL/4, the error of a first-order launch at z_start;
    or z_start, if that lies further out.
    """
    q = np.abs(badlands_q(table, energy_au, table.z))
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
    sigma, dropped = _wkb_launch(table, energy_au, table.z[: i_peak + 1])
    launch_candidates = np.nonzero(
        np.maximum.accumulate(dropped) <= 0.25 * _EDGE_TOL)[0]
    i_m = launch_candidates[-1] if launch_candidates.size else 0
    i_launch = max(start_candidates[-1], i_m)
    return (float(table.z[start_candidates[-1]]), float(table.z[i_launch]),
            complex(sigma[i_launch]), float(table.z[end_candidates[0]]))


def _wkb_launch(table: PotentialTable, energy_au: float,
                z) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, dropped) of the order-_WKB_ORDER WKB incoming wave on an
    array of z: sigma = c+ e^{2i phi}/c- and the first dropped term's size.

    With hbar = 1, y = psi'/psi obeys y' + y^2 + p^2 = 0, whose WKB series
    is y_0 = -ip and 2 y_0 y_n = -y_{n-1}' - Sum_{j=1}^{n-1} y_j y_{n-j}
    (Friedrich & Trost, Phys. Rep. 397, 359, 2004).  Each y_n is carried as
    z y_n(z (1 + u)), a Taylor series in u, so that d/dz becomes d/du and
    every coefficient stays of the size of z p; y_n needs N + 1 - n terms
    for y_{N+1} at u = 0.  The wave y = y_0 + ... + y_N, projected onto the
    amplitude gauge (psi' = i p (c+ e^{i phi} - c- e^{-i phi})/
    (hbar sqrt(p))), gives sigma = (ip + y)/(ip - y); the dropped y_{N+1}
    moves it by about |y_{N+1}|/2p.  At N = 2 this is the closed form
    (iQ/2 - beta)/(2i - iQ/2 + beta), beta = hbar p'/2p^2, and y_3 gives
    |Q'|/8p.
    """
    n = _WKB_ORDER + 2
    a = table.taylor(z, n - 1)
    # (z p)^2 = 2m z^2 (E - V) as a series, then its square root
    p2 = -2.0 * _M * z * z * a
    p2[0] += 2.0 * _M * z * z * energy_au
    zp = [np.sqrt(p2[0])]
    for k in range(1, n):
        zp.append((p2[k] - sum(zp[j] * zp[k - j] for j in range(1, k)))
                  / (2.0 * zp[0]))
    # y[m][k]: coefficient k of z y_m; 2 y_0 = -2i z p, so dividing by it is
    # multiplying by i/2 and dividing by the series of z p
    y = [[-1j * c for c in zp]]
    for m in range(1, n):
        y_m: list[np.ndarray] = []
        for k in range(n - m):
            rhs = -(k + 1) * y[m - 1][k + 1] - sum(
                y[j][i] * y[m - j][k - i]
                for j in range(1, m) for i in range(k + 1))
            y_m.append((0.5j * rhs - sum(zp[j] * y_m[k - j]
                                         for j in range(1, k + 1)))
                       / zp[0])
        y.append(y_m)
    # ip + y_0 = 0: sum the corrections alone
    corr = sum(y[m][0] for m in range(1, n - 1))
    sigma = corr / (2j * zp[0] - corr)
    return sigma, np.abs(y[-1][0]) / (2.0 * zp[0])


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


def solve_reflection(table: PotentialTable, energy_au: float) -> ReflectionResult:
    """Integrate the coupled amplitude equations outward and return r.

    Starts from the launch point z_m (or z_start, if that lies further out)
    in the absorbing state (purely incoming flux, the finite-z form of
    c+(0) = 0; see the launch comment below), advances phi by the same
    embedded quadrature as the amplitudes, and stops once |Q| < _EDGE_TOL
    and r has stopped changing (relative change below _R_TOL across the
    trailing decade of z).
    """
    if not 0 < energy_au < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_au}")
    if table.is_null:
        return ReflectionResult(r=0.0j, probability=0.0, loss=1.0,
                                energy_au=energy_au, z_start=table.z_min,
                                z_end=table.z_max, flux_drift=0.0,
                                steps=0, rejected=0)

    z_start, z, sigma, z_end_min = _wkb_bounds(table, energy_au)
    z_hard_end = table.z_max

    # constants bound to locals: rhs and max_step are the hot loop
    mass = _M
    two_m = 2.0 * mass
    deriv = table.derivatives_scalar

    def rhs(z: float, cp: complex, cm: complex, phi: float):
        v, vp = deriv(z)
        p = math.sqrt(two_m * (energy_au - v))
        g = -mass * vp / (2.0 * p * p)
        e = cmath.exp(-2j * phi)
        return g * e * cm, g * e.conjugate() * cp, p

    # Launch state: the order-_WKB_ORDER WKB incoming wave (see _wkb_launch),
    # normalised to |c-|^2 - |c+|^2 = 1.  It is not c+ = 0: c+ -> 0 only as
    # z -> 0, the full absorption at the surface.  Its error |y_{N+1}|/2p
    # stays within _EDGE_TOL/4 up to z_m, so the solve does not step through
    # [z_start, z_m].  phi starts at 0 there: the launch would carry
    # e^{-2i phi} of any other origin, and r e^{2i phi} below cancels it.
    phi = 0.0
    cm = 1.0 / math.sqrt(1.0 - abs(sigma) ** 2)
    cp = sigma * cm

    phase_step_frac, z_step_frac = _PHASE_STEP_FRAC, _Z_STEP_FRAC

    def max_step(zc: float, pc: float) -> float:
        return min(phase_step_frac * math.pi / pc,
                   z_step_frac * zc,
                   z_hard_end - zc)

    h = 0.01 * max_step(z, rhs(z, cp, cm, phi)[2])
    atol, rtol = _RK_ATOL, _RK_RTOL
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = _CK_A
    (b1, _, b3, b4, _, b6), (e1, _, e3, e4, e5, e6) = _CK_B5, _CK_ERR
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
                 cp + h * (a21 * k1[0]),
                 cm + h * (a21 * k1[1]),
                 phi + h * (a21 * k1[2]))
        k3 = rhs(z + _CK_C3 * h,
                 cp + h * (a31 * k1[0] + a32 * k2[0]),
                 cm + h * (a31 * k1[1] + a32 * k2[1]),
                 phi + h * (a31 * k1[2] + a32 * k2[2]))
        k4 = rhs(z + _CK_C4 * h,
                 cp + h * (a41 * k1[0] + a42 * k2[0] + a43 * k3[0]),
                 cm + h * (a41 * k1[1] + a42 * k2[1] + a43 * k3[1]),
                 phi + h * (a41 * k1[2] + a42 * k2[2] + a43 * k3[2]))
        k5 = rhs(z + _CK_C5 * h,
                 cp + h * (a51 * k1[0] + a52 * k2[0] + a53 * k3[0] + a54 * k4[0]),
                 cm + h * (a51 * k1[1] + a52 * k2[1] + a53 * k3[1] + a54 * k4[1]),
                 phi + h * (a51 * k1[2] + a52 * k2[2] + a53 * k3[2] + a54 * k4[2]))
        k6 = rhs(z + _CK_C6 * h,
                 cp + h * (a61 * k1[0] + a62 * k2[0] + a63 * k3[0] + a64 * k4[0] + a65 * k5[0]),
                 cm + h * (a61 * k1[1] + a62 * k2[1] + a63 * k3[1] + a64 * k4[1] + a65 * k5[1]),
                 phi + h * (a61 * k1[2] + a62 * k2[2] + a63 * k3[2] + a64 * k4[2] + a65 * k5[2]))

        # 5th-order step and error, term by term; b2 = b5 = e2 = 0
        new_cp = cp + h * (b1 * k1[0] + b3 * k3[0] + b4 * k4[0] + b6 * k6[0])
        new_cm = cm + h * (b1 * k1[1] + b3 * k3[1] + b4 * k4[1] + b6 * k6[1])
        new_phi = phi + h * (b1 * k1[2] + b3 * k3[2] + b4 * k4[2] + b6 * k6[2])
        err_cp = h * (e1 * k1[0] + e3 * k3[0] + e4 * k4[0] + e5 * k5[0] + e6 * k6[0])
        err_cm = h * (e1 * k1[1] + e3 * k3[1] + e4 * k4[1] + e5 * k5[1] + e6 * k6[1])
        err_phi = h * (e1 * k1[2] + e3 * k3[2] + e4 * k4[2] + e5 * k5[2] + e6 * k6[2])

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
    r = (cp / cm) * cmath.exp(2j * (phi - _phase(table, energy_au, z_end_min, z)))
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
    height_m: float
    result: ReflectionResult | None
    error: str | None = None


def reflection_sweep(table: PotentialTable, heights_m) -> list[SweepPoint]:
    """Solve per free-fall height, in input order.

    Per-point failures are recorded without aborting the sweep.  Results are
    deterministic functions of (table, energy), independent of the
    order in which points are run.
    """
    pairs = [(CONSTANTS.energy_au_from_height(h), h) for h in heights_m]
    points: list[SweepPoint] = []
    for energy, height in pairs:
        try:
            res = solve_reflection(table, energy)
            points.append(SweepPoint(energy, height, res))
        except (SolveError, ValueError) as exc:
            points.append(SweepPoint(energy, height, None, error=str(exc)))
    return points
