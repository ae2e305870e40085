"""Quantum reflection on a tabulated Casimir-Polder potential.

The vertical Schrodinger equation is rewritten in the basis of WKB waves
exp(+i phi)/sqrt(p) (moving away from the mirror) and exp(-i phi)/sqrt(p)
(falling toward it), with phi' = p/hbar and p = sqrt(2m(E - V)).  The
amplitudes obey coupled first-order equations

    c+' = e^{-2i phi} (p'/2p) c-          c-' = e^{+2i phi} (p'/2p) c+

whose exchange term is what quantum reflection is.  Annihilation on contact
imposes full absorption at the surface, c+(z -> 0) = 0, and the reflection
amplitude is r = c+/c- far from the mirror.  The equations are linear,
(c+, c-)' = A (c+, c-), so a solve is a product of 2x2 transfer matrices,
one sixth-order Magnus step per panel.  |c-|^2 - |c+|^2 is an exact
invariant of the equations; each transfer matrix conserves it to rounding,
and its drift is checked as a guard against rounding.

The WKB waves are exact wherever the badlands function

    Q = hbar^2 [ p''/p - (3/2)(p'/p)^2 ] / (2 p^2)

vanishes; the WKB-exact endpoints z_start and z_end_min are where |Q| is
below _EDGE_TOL = 1e-8, which for CP potentials happens both near the
surface and far away.  Between z_start and about 1 a0 no reflection
happens, only WKB oscillations, so the solve does not lay panels over
them: it starts at the launch point z_m, the last grid point before the
badlands peak up to which the fourth-order WKB incoming wave is exact to
_EDGE_TOL/4, with phi = 0 there.  By the same rule it lands at z_l, the
first grid point beyond the peak from which on the fourth-order waves are
that exact, splits the state there into the incoming wave and the
outgoing one, its complex conjugate, and reads r as the ratio of their
amplitudes; z_l is z_end_min where that lies further out.  r does not
depend on phi's origin, and it is referenced to z0 = z_end_min, so it
does not depend on where the solve lands either.  Attractive potentials
have no classical turning point, so no tunneling machinery is needed; the
gravity field itself is not part of the solver potential (E is the fixed
incident energy from the free fall).
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
_GL6_X, _GL6_W = leggauss(6)
_GAUSS3 = 0.5 + math.sqrt(0.15) * np.array([-1.0, 0.0, 1.0])  # nodes on [0, 1]

# tolerances and panel widths of the amplitude solver
_EDGE_TOL = 1e-8          # |Q| defining the WKB-exact endpoints
_FLUX_TOL = 1e-6          # allowed drift of |c-|^2 - |c+|^2
_PHASE_STEP_FRAC = 0.125  # max panel as fraction of pi hbar / p
_Z_STEP_FRAC = 0.05       # max panel as fraction of z
_MAX_STEPS = 5_000_000    # panels laid out per solve
_BLOCK = 256              # panels per vectorised pass
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


def _check_energy(energy_au: float) -> None:
    if not 0 < energy_au < math.inf:
        raise ValueError(f"energy must be positive and finite, got {energy_au}")


def badlands_q(table: PotentialTable, energy_au: float, z_au):
    """Q(z) evaluated from analytic derivatives of the table interpolant."""
    _check_energy(energy_au)
    z = np.asarray(z_au, dtype=float)
    return _badlands(energy_au, z, table.taylor(z, 2))


def _badlands(energy_au: float, z, a):
    """Q at z from the Taylor rows a_k = z^k V^(k)/k! of V there."""
    v, vp, vpp = a[0], a[1] / z, 2.0 * a[2] / (z * z)
    p_sq = 2.0 * _M * (energy_au - v)
    p = np.sqrt(p_sq)
    dp = -_M * vp / p
    d2p = -_M * vpp / p - _M**2 * vp * vp / (p * p_sq)
    u = dp / p   # squared as u * u, which a float's pow() may not match
    schwarzian = d2p / p - 1.5 * (u * u)
    return schwarzian / (2.0 * p_sq)


def badlands_profile(table: PotentialTable, energy_au: float) -> BadlandsProfile:
    """Q sampled on the table grid (from the table's ``grid_taylor``), with
    its peak location and height."""
    _check_energy(energy_au)
    q = _badlands(energy_au, table.z, table.grid_taylor)
    i = int(np.argmax(np.abs(q)))
    return BadlandsProfile(q=q, peak_z=float(table.z[i]), peak_q=float(q[i]))


# ---------------------------------------------------------------------------
# amplitude-equation solver


@dataclass
class ReflectionResult:
    r: complex                    # phase referenced to z0 = Q-selected z_end_min
    probability: float            # |r|^2
    loss: float                   # 1 - |r|^2
    z_start: float                # near WKB-exact endpoint
    z_end: float                  # landing point z_l, where r is read
    flux_drift: float             # max |(|c-|^2 - |c+|^2) - 1| at the stops
    steps: int                    # Magnus panels from the launch to z_end
    rejected: int                 # always 0: panels are never rejected


def _wkb_bounds(table: PotentialTable,
                energy_au: float) -> tuple[int, int, int, int, np.ndarray]:
    """(i_start, i_launch, i_end_min, i_land, sigma) on the table's grid:
    the WKB-exact endpoints z_start and z_end_min, where |Q| is below
    _EDGE_TOL on either flank of the badlands peak, the launch and landing
    points, and ``_wkb_launch``'s sigma at every grid point.

    One rule (``_ends``) picks all four: on |Q| with _EDGE_TOL, and on the
    order-N wave's dropped term |y_{N+1}|/2p with _EDGE_TOL/4, the error of
    a first-order wave at a WKB-exact endpoint (``_wkb_ends``).  The
    order-N waves are that exact up to the launch point z_m, the last such
    grid point before the peak, and from the landing point z_l on, the
    first such grid point beyond it; z_start or z_end_min replaces either
    where it lies further out or where there is none, so a solve lands
    wherever z_end_min is on the table.  Running maxima keep an accidental
    zero crossing inside the badlands from passing for the WKB-exact
    region.  Both read V from the table's Taylor rows on its grid
    (``grid_taylor``), which no energy changes.
    """
    rows = table.grid_taylor
    q = np.abs(_badlands(energy_au, table.z, rows))
    i_peak = int(np.argmax(q))
    i_start, i_end_min = _ends(q, i_peak, _EDGE_TOL)
    if i_start < 0:
        raise SolveError(
            f"no WKB-exact region below the badlands peak: |Q| >= "
            f"{q[0]:.2e} at the near edge of the table (need {_EDGE_TOL:g})"
        )
    if i_end_min < 0:
        raise SolveError(
            f"no WKB-exact region beyond the badlands peak: |Q| >= "
            f"{q[-1]:.2e} at the far edge of the table (need {_EDGE_TOL:g})"
        )
    i_m, i_l, sigma = _wkb_ends(energy_au, table.z, rows, i_peak)
    return i_start, max(i_start, i_m), i_end_min, max(i_end_min, i_l), sigma


def _wkb_ends(energy_au: float, z, a,
              i_peak: int) -> tuple[int, int, np.ndarray]:
    """(i_m, i_l, sigma): ``_wkb_launch``'s sigma on z, and the launch and
    landing points ``_ends`` picks on its dropped term with _EDGE_TOL/4."""
    sigma, dropped = _wkb_launch(energy_au, z, a)
    return (*_ends(dropped, i_peak, 0.25 * _EDGE_TOL), sigma)


def _ends(values: np.ndarray, i_peak: int, bound: float) -> tuple[int, int]:
    """(i, j): the last index up to i_peak up to which the running maximum
    of ``values`` stays within ``bound``, and the first index past i_peak
    from which on it does up to the end; -1 for either if there is none.
    A running maximum is monotone, so the points within form a prefix (a
    suffix, running from the end)."""
    near, far = (int(np.count_nonzero(np.maximum.accumulate(v) <= bound))
                 for v in (values[: i_peak + 1], values[:i_peak:-1]))
    return near - 1, values.size - far if far else -1


def _wkb_launch(energy_au: float, z, a) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, dropped) of the order-_WKB_ORDER WKB incoming wave on an
    array of z, from the Taylor rows a of V there (``PotentialTable.taylor``
    to order _WKB_ORDER + 1 or higher): sigma = c+ e^{2i phi}/c- and the
    first dropped term's size.

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
    a = a[:n]
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


def _transfer(table: PotentialTable, energy_au: float, edges: np.ndarray,
              phi0: float) -> tuple[list, ...]:
    """Transfer matrices exp(Omega) of the panels between ``edges``, as four
    lists of entries, and phi at each panel's right edge; phi0 is phi at
    the first edge.

    Omega is the sixth-order Magnus exponent from A at the three Gauss
    nodes of each panel (Blanes, Casas & Ros, BIT 40, 434, 2000).  A is
    anti-diagonal, A = (0, g e^{-2i phi}, g e^{2i phi}) with g = p'/2p =
    -V'/(4 (E - V)), written (u, x, y) for [[u, x], [y, -u]]: the alphas
    are anti-diagonal too, so they carry (x, y) alone, and their
    commutator c1 = [alpha_1, alpha_2] is diagonal, so it carries u alone.
    V' is read by ``taylor(nodes, 1)``: the Gauss nodes lie off the grid,
    so the table's kept grid read (``grid_taylor``) does not hold them.
    Omega is traceless, so exp(Omega) = cosh(s) I + (sinh(s)/s) Omega with
    s^2 = -det Omega; it conserves |c-|^2 - |c+|^2 to rounding.  phi at each
    node and edge is phi0 plus the panels before it plus one 6-point
    Gauss-Legendre rule from the panel's left edge (within 4e-13 of a
    16-point rule in r on the registry).
    """
    left, h = edges[:-1, None], np.diff(edges)[:, None]
    nodes = left + h * _GAUSS3
    span = h * np.append(_GAUSS3, 1.0)
    zq = left[..., None] + 0.5 * span[..., None] * (1.0 + _GL6_X)
    p = np.sqrt(2.0 * _M * (energy_au - table.potential(zq)))
    part = 0.5 * span * (p @ _GL6_W)
    phi = phi0 + np.cumsum(part[:, 3])
    phase = np.exp(-2j * (np.append(phi0, phi[:-1])[:, None] + part[:, :3]))
    v, zv = table.taylor(nodes, 1)
    hg = h * zv / (-4.0 * nodes * (energy_au - v))
    # h A at the nodes; alpha_1 = h A_2, alpha_2, alpha_3 and the Magnus
    # exponent from them (ibid.), with [(x1, y1), (x2, y2)] = (x1 y2 -
    # x2 y1) diag(1, -1) and [u diag(1, -1), (x, y)] = (2 u x, -2 u y)
    x, y = hg * phase, hg * phase.conjugate()
    x1, y1 = x[:, 1], y[:, 1]
    x2, y2 = (math.sqrt(5.0 / 3.0) * (w[:, 2] - w[:, 0]) for w in (x, y))
    x3, y3 = (10.0 / 3.0 * (w[:, 2] - 2.0 * w[:, 1] + w[:, 0])
              for w in (x, y))
    c1 = x1 * y2 - x2 * y1
    # c2 = [alpha_1, 2 alpha_3 + c1] / -60
    c2u = (x1 * y3 - x3 * y1) / -30.0
    c2x, c2y = c1 * x1 / 30.0, c1 * y1 / -30.0
    # Omega = alpha_1 + alpha_3/12 + [-20 alpha_1 - alpha_3 + c1,
    # alpha_2 + c2]/240
    lx, ly = -20.0 * x1 - x3, -20.0 * y1 - y3
    rx, ry = x2 + c2x, y2 + c2y
    u = (lx * ry - rx * ly) / 240.0
    ox = x1 + x3 / 12.0 + (c1 * rx - c2u * lx) / 120.0
    oy = y1 + y3 / 12.0 + (c2u * ly - c1 * ry) / 120.0
    s = np.sqrt(u * u + ox * oy)
    ch, sh = np.cosh(s), np.sinc(1j * s / math.pi)   # sinh(s)/s, 1 at s = 0
    return ((ch + sh * u).tolist(), (sh * ox).tolist(), (sh * oy).tolist(),
            (ch - sh * u).tolist(), phi.tolist())


def _march(table: PotentialTable, energy_au: float, z: float,
           sigma: complex, stops: list[float] | tuple[float, ...]):
    """(stop, c+, c-, phi, panels) at each of the increasing panel edges
    ``stops``, marching from the launch point z outward; panels counts
    those laid from z.

    The launch state is the order-_WKB_ORDER WKB incoming wave c+ = sigma
    c- (see _wkb_bounds), normalised to |c-|^2 - |c+|^2 = 1.  It is not
    c+ = 0: c+ -> 0 only as z -> 0, the full absorption at the surface.
    phi starts at 0 there: the launch would carry e^{-2i phi} of any other
    origin.  Each panel multiplies the state by its transfer matrix
    (``_transfer``).

    A panel is at most _PHASE_STEP_FRAC pi hbar/p and _Z_STEP_FRAC z wide:
    the panel density on t = ln z, max(p z/(_PHASE_STEP_FRAC pi),
    1/_Z_STEP_FRAC), is summed by the trapezoid rule over the ends of a
    stretch between stops and the table's grid points between them, and
    the edges sit at equal steps of that sum.  That depends on t - ln z and
    p z alone, so the layout is scale-free.  More than _MAX_STEPS panels in
    all is a SolveError, raised before they are allocated; ``_transfer``
    sees at most _BLOCK panels at a time, which bounds its memory.
    """
    cm = 1.0 / math.sqrt(1.0 - abs(sigma) ** 2)
    cp = sigma * cm
    laid, phi = 0, 0.0
    for z_next in stops:
        zt = np.concatenate(([z], table.z[(table.z > z) & (table.z < z_next)],
                             [z_next]))
        t = np.log(zt)
        pz = np.sqrt(2.0 * _M * (energy_au - table.potential(zt))) * zt
        density = np.maximum(pz / (_PHASE_STEP_FRAC * math.pi),
                             1.0 / _Z_STEP_FRAC)
        total = np.append(0.0, np.cumsum(
            0.5 * (density[1:] + density[:-1]) * np.diff(t)))
        n = max(1, math.ceil(total[-1]))
        laid += n
        if laid > _MAX_STEPS:
            raise SolveError(f"step budget exceeded at z = {z:g}")
        edges = np.exp(np.interp(np.linspace(0.0, total[-1], n + 1), total, t))
        edges[0], edges[-1] = z, z_next
        for i in range(0, n, _BLOCK):
            *matrix, phis = _transfer(table, energy_au,
                                      edges[i:i + _BLOCK + 1], phi)
            phi = phis[-1]
            for a, b, c, d in zip(*matrix):
                cp, cm = a * cp + b * cm, c * cp + d * cm
        yield z_next, cp, cm, phi, laid
        z = z_next


def _land(cp: complex, cm: complex, phi: float, sigma: complex,
          phi0: float) -> complex:
    """r from the state (c+, c-) at a landing point with the given phi and
    incoming wave's sigma (``_wkb_launch``), its phase referenced to the
    point where phi = phi0.  With w = e^{2i phi}, the order-_WKB_ORDER
    incoming wave has c+/c- = sigma/w and the outgoing one, its complex
    conjugate, 1/(conj(sigma) w).  Split into the two, the state has the
    amplitude ratio (c+ w - sigma c-)/(c- - conj(sigma) w c+)/w; far out
    (sigma -> 0) that is c+/c-."""
    w = cmath.exp(2j * phi)
    return ((cp * w - sigma * cm) / (cm - sigma.conjugate() * w * cp)
            * cmath.exp(2j * phi0) / w)


def solve_reflection(table: PotentialTable, energy_au: float) -> ReflectionResult:
    """Propagate the coupled amplitude equations outward and return r.

    Marches the absorbing state (purely incoming flux, the finite-z form of
    c+(0) = 0) out from the launch point through z_end_min to the landing
    point z_l (``_wkb_bounds``, ``_march``) and reads r at z_l (``_land``).
    """
    _check_energy(energy_au)
    i_start, i_launch, i_end_min, i_land, sigma = _wkb_bounds(table,
                                                              energy_au)
    stops = table.z[sorted({i_end_min, i_land})].tolist()
    reads = list(_march(table, energy_au, float(table.z[i_launch]),
                        complex(sigma[i_launch]), stops))
    flux_drift = max(abs((abs(cm) ** 2 - abs(cp) ** 2) - 1.0)
                     for _, cp, cm, _, _ in reads)
    if flux_drift > _FLUX_TOL:
        raise SolveError(
            f"flux drift {flux_drift:.2e} exceeds {_FLUX_TOL:g}: "
            f"step control failure"
        )
    # phase reference z0 = the Q-selected z_end_min, not z_l: far out each
    # panel advances 2 phi by about pi/4, so r referenced to z_l would turn
    # with the panel count; e^{2i phi(z0)} also cancels phi's origin
    z_land, cp, cm, phi, steps = reads[-1]
    r = _land(cp, cm, phi, complex(sigma[i_land]), reads[0][3])
    prob = abs(r) ** 2
    return ReflectionResult(r=r, probability=prob, loss=1.0 - prob,
                            z_start=float(table.z[i_start]), z_end=z_land,
                            flux_drift=flux_drift, steps=steps, rejected=0)


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
