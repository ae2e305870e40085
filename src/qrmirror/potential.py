"""Zero-temperature Casimir-Polder potential of a ground-state atom above
planar mirrors, tabulated on a log grid with asymptotic coefficients.

The potential is a Laplace transform over q >= 0, the imaginary wave vector
normal to the mirror (atomic units, alpha-hat in volume units):

    V(z) = -(1/(2 pi c^2)) Int_0^inf dq e^{-2 q z} F(q)
    F(q) = Int_0^{cq} dxi alpha(i xi) [ (2 c^2 q^2 - xi^2) r_TM
                                         - xi^2 r_TE ],   kappa = cq/xi

which is the (xi, kappa) double integral with q = kappa xi / c and the two
integrals swapped (cf. Dufour et al., PRA 87, 012901, 2013).  F does not
depend on z, so a table evaluates it once per q node and every z is one
row of a matrix product.  The q rule is a 21-point Gauss-Kronrod rule on
panels at most 2 wide in ln q; the finite xi range of each F is a first
panel linear in xi, ending at 0.3 times the smallest response scale or,
for a sheet, at the knee xi = eta c q / 2 of r_TM if that is lower, and
then decades of ln xi.  A sheet's decades run up to cq; a dielectric's
end at 1e5 times its largest response scale if that is lower, where the
integrand has fallen as xi^-4 and the rest is below 1e-14 of F.  The
response scales include both poles of an overdamped oscillator, so no
panel needs bisection: a table lays out the panels of all its q nodes once
and runs them through the Gauss-Kronrod rule in vectorised passes of a
fixed panel count, which evaluate the reflection amplitudes once on every
(xi, kappa) node pair.

The overall constant is not taken on trust: it is locked by two anchors that
the perfect-conductor potential must reproduce simultaneously,

    z -> 0:    V -> -C3/z^3,  C3 = (1/4pi) Int alpha(i xi) dxi
    z -> inf:  V -> -C4/z^4,  C4 = 3 c alpha(0) / (8 pi)

both of which are checked by the test suite against the tabulated reference
values (0.25 Eh a0^3 and 73.6 Eh a0^4).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .constants import CONSTANTS
from .optics import (
    DEFAULT_POLARIZABILITY,
    DielectricModel,
    SheetModel,
    bruggeman_mix,
    fresnel,
    sheet_reflection,
    slab_reflection,
)

_C = CONSTANTS.c_au


class QuadratureError(RuntimeError):
    """Raised when the potential quadrature misses its error target."""


# ---------------------------------------------------------------------------
# mirror specification


@dataclass(frozen=True)
class MirrorSpec:
    """Planar mirror: perfect conductor, bulk, finite slab, sheet or porous.

    A porous mirror is its host ``dielectric`` with a vacuum pore fraction
    ``porosity`` in [0, 1), mixed by Bruggeman.
    """

    kind: str
    dielectric: DielectricModel | None = None
    thickness_au: float | None = None
    sheet: SheetModel | None = None
    porosity: float | None = None

    # the fields each kind reads; it needs them, and takes no other
    _READS = {"perfect_conductor": (), "bulk": ("dielectric",),
              "slab": ("dielectric", "thickness_au"), "sheet": ("sheet",),
              "porous": ("dielectric", "porosity")}

    def __post_init__(self):
        reads = (self._READS.get(self.kind) if isinstance(self.kind, str)
                 else None)
        if reads is None:
            raise ValueError(f"unknown mirror kind {self.kind!r}")
        for name in ("dielectric", "thickness_au", "sheet", "porosity"):
            unset = getattr(self, name) is None
            if name in reads and unset:
                raise ValueError(f"{self.kind} mirror needs a {name}")
            if name not in reads and not unset:
                raise ValueError(f"a {self.kind} mirror takes no {name}")
        if "dielectric" in reads and self.dielectric.is_vacuum:
            raise ValueError("vacuum is not a mirror")
        if "thickness_au" in reads and not 0 < self.thickness_au < math.inf:
            raise ValueError("slab mirror needs a finite thickness > 0, "
                             f"got {self.thickness_au}")
        if "porosity" in reads and not 0.0 <= self.porosity < 1.0:
            raise ValueError("porosity must be in [0, 1) (1 leaves vacuum: "
                             f"not a mirror), got {self.porosity}")

    @classmethod
    def perfect_conductor(cls) -> "MirrorSpec":
        return cls(kind="perfect_conductor")

    @classmethod
    def bulk(cls, model: DielectricModel) -> "MirrorSpec":
        return cls(kind="bulk", dielectric=model)

    @classmethod
    def slab(cls, model: DielectricModel, thickness_au: float) -> "MirrorSpec":
        return cls(kind="slab", dielectric=model, thickness_au=thickness_au)

    @classmethod
    def slab_nm(cls, model: DielectricModel, thickness_nm: float) -> "MirrorSpec":
        return cls.slab(model, thickness_nm / CONSTANTS.bohr_nm)

    @classmethod
    def conducting_sheet(cls, sheet: SheetModel) -> "MirrorSpec":
        return cls(kind="sheet", sheet=sheet)

    @classmethod
    def porous(cls, host: DielectricModel, porosity: float) -> "MirrorSpec":
        return cls(kind="porous", dielectric=host, porosity=porosity)

    @property
    def label(self) -> str:
        if self.kind == "perfect_conductor":
            return "perfect conductor"
        if self.kind == "bulk":
            return f"bulk {self.dielectric.name}"
        if self.kind == "slab":
            d_nm = self.thickness_au * CONSTANTS.bohr_nm
            return f"{self.dielectric.name} slab d={d_nm:g}nm"
        if self.kind == "sheet":
            return f"conducting sheet eta={self.sheet.eta:.5g}"
        return f"porous {self.dielectric.name} f={self.porosity:g}"

    def response_scales_au(self) -> list[float]:
        """Imaginary-frequency scales structuring the response (Eh): each
        oscillator's pole magnitudes, the roots of xi^2 + gamma xi + w0^2 (w0
        unless gamma > 2 w0, then big and w0^2/big), and a slab's c/2d."""
        scales: list[float] = []
        for o in self.dielectric.oscillators if self.dielectric else ():
            w0, g = math.sqrt(o.resonance_sq), o.damping
            if g <= 2.0 * w0:
                scales.append(w0)
            else:
                big = 0.5 * (g + math.sqrt((g - 2.0 * w0) * (g + 2.0 * w0)))
                scales += [big, o.resonance_sq / big]
        if self.kind == "slab":
            scales.append(_C / (2.0 * self.thickness_au))
        return scales

    def effective_epsilon(self, xi):
        """eps(i xi) presented to the field (Bruggeman-mixed for porous)."""
        if self.kind == "bulk" or self.kind == "slab":
            return self.dielectric.epsilon(xi)
        if self.kind == "porous":
            return bruggeman_mix(self.dielectric, self.porosity, xi)
        raise ValueError(f"{self.kind} mirror has no dielectric function")

    def reflection(self, xi, kappa):
        """(r_TM, r_TE) at imaginary frequency xi and transverse kappa >= 1.

        Not defined for the perfect conductor, whose F(q) is closed-form.
        """
        if self.kind == "sheet":
            return sheet_reflection(self.sheet, xi, kappa)
        if self.kind == "slab":
            return slab_reflection(self.dielectric, self.thickness_au, xi, kappa)
        return fresnel(self.effective_epsilon(xi), kappa)


# ---------------------------------------------------------------------------
# xi quadrature of F(q): 21-point Gauss-Kronrod rule with its embedded
# 10-point Gauss rule (the pair of QUADPACK's qk21), applied to the panels of
# every q node of a table in passes of _PANELS panels


# Kronrod nodes on [0, 1] and their weights; the odd-indexed nodes are the
# 10-point Gauss nodes
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
# mirror onto [-1, 1], ascending (node 0 appears once)
_GK_X = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
_GK_W = np.concatenate([_GK_W[:-1], _GK_W[::-1]])
_G_W = np.zeros_like(_GK_W)
_G_W[1::2] = leggauss(10)[1]

_TARGET_REL = 1e-6     # relative accuracy that every V(z) must reach
# The q rule spans [_Q_LO/z_max, _Q_HI/z_min].  Below the cut F grows at
# least as q^2, so V(z) loses at most (4/3)(_Q_LO z/z_max)^3 ~ 1e-18 of
# itself; above it e^{-2qz} <= e^{-100}.
_Q_LO, _Q_HI = 1e-6, 50.0
# The xi panels of a dielectric mirror (bulk, slab, porous) end at
# min(cq, _XI_CUT w_max), w_max the largest response scale, the atom's
# included.  Above w_max, alpha ~ xi^-2 and eps - 1 <= Omega^2/xi^2
# (Omega^2 = Sum wp^2; Bruggeman's eps - 1 is below its host's, a slab's r
# below the bulk's), so the TM term falls as xi^-4 and the TE term tends to
# the constant Omega^2 alpha(0) w^2 / (4 c^2 q^2): F loses about
# (Omega/w_max)^2 (w_max/xi_cut)^3 of itself, at most 1e-14 for a shipped
# material (Omega <= 2.2 w_max).  A sheet's TE term grows as xi up to cq,
# so its panels run to cq.
_XI_CUT = 1e5
_Q_PANEL = 2.0         # width of a q panel in ln q (at most)
_BLOCK = 32            # z rows per e^{-2qz} block
# xi panels per Gauss-Kronrod pass: 5,376 nodes, 43 KB a temporary, however
# many q nodes the table has; small passes would pay numpy's fixed cost per
# call, large ones miss cache
_PANELS = 256
_LN10 = math.log(10.0)


def _gauss_kronrod(f, lo, hi, log, owner, n):
    """Integrals over xi of n owners and their summed |K21 - G10|:
    f(xi, owner) is evaluated once on every node of every panel, _PANELS
    panels per pass, and each owner's panels are summed once at the end.

    Panel i belongs to owner[i] and spans [lo[i], hi[i]] in s = ln xi where
    log[i], else in xi.  No panel is bisected: _f_of_q lays the panels out
    from the response scales, a damped oscillator's poles among them.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    k = np.empty_like(lo)
    e = np.empty_like(lo)
    for i in range(0, lo.size, _PANELS):
        p = slice(i, i + _PANELS)
        h = half[p, None]
        t = mid[p, None] + h * _GK_X
        xi = np.exp(t, out=t, where=log[p, None])
        fx = f(xi, owner[p, None])
        fx *= np.where(log[p, None], xi, 1.0) * h
        k[p] = fx @ _GK_W
        e[p] = np.abs(k[p] - fx @ _G_W)
    return (np.bincount(owner, weights=k, minlength=n),
            np.bincount(owner, weights=e, minlength=n))


def _f_of_q(mirror: MirrorSpec, q):
    """F(q) and its xi error estimate (summed |K21 - G10|) on q nodes, all
    of a table's at once: one panel layout, one ``_gauss_kronrod`` call.

    The xi range [0, hi] of each q is split into panels: [0, min(lo, hi)]
    in xi, then decades in s = ln xi from lo up to hi.  lo is 0.3 times the
    smallest response scale (atom and mirror, each overdamped oscillator's
    two pole magnitudes among them), or for a sheet its knee eta cq / 2 if
    that is lower; hi is cq for a sheet and min(cq, _XI_CUT w_max) for a
    dielectric, w_max the largest response scale.  The perfect conductor's
    F is closed-form: 2 c^2 q^2 Sum_j s_j w_j arctan(cq / w_j).
    """
    alpha = DEFAULT_POLARIZABILITY
    x = _C * q
    if mirror.kind == "perfect_conductor":
        f = sum(s * w * np.arctan(x / w) for s, w in alpha.oscillators)
        return 2.0 * x * x * f, np.zeros_like(q)
    scales = [w for _, w in alpha.oscillators] + mirror.response_scales_au()
    lo = np.full_like(x, 0.3 * min(scales))
    x_hi = x
    if mirror.kind == "sheet":
        # sheet r_TM = y/(1 + y), y = eta x/(2 xi), has its knee at y = 1
        lo = np.minimum(lo, 0.5 * mirror.sheet.eta * x)
    else:
        x_hi = np.minimum(x, _XI_CUT * max(scales))
    # lo >= 1e-100 x, each node's own, keeps kappa^2 = (x/xi)^2 <= 1e200
    # however thick a slab and however wide the grid; below it xi^2/x^2 <
    # 1e-200, so the first panel sees a flat integrand
    s_lo = np.log(np.maximum(lo, 1e-100 * x))
    s_x = np.log(x_hi)
    count = 1 + np.maximum(0.0, np.ceil((s_x - s_lo) / _LN10)).astype(np.intp)
    owner = np.repeat(np.arange(q.size), count)
    j = np.arange(owner.size) - np.repeat(np.cumsum(count) - count, count)
    log = j > 0
    s_lo = s_lo[owner]
    lo = np.where(log, s_lo + (j - 1) * _LN10, 0.0)
    hi = np.where(log, np.minimum(s_lo + j * _LN10, s_x[owner]),
                  np.minimum(np.exp(s_lo), x_hi[owner]))

    def integrand(xi, owner):
        xq = x[owner]
        r_tm, r_te = mirror.reflection(xi, xq / xi)
        xi2 = xi * xi
        return alpha.alpha(xi) * ((2.0 * xq * xq - xi2) * r_tm - xi2 * r_te)

    return _gauss_kronrod(integrand, lo, hi, log, owner, q.size)


def _potential(mirror: MirrorSpec, z):
    """V in Hartree on an array of z (a0), by one q rule for all of them.

    q runs over [_Q_LO/z_max, _Q_HI/z_min] on panels of width <= _Q_PANEL
    = 2 in ln q, each with the 21-point Gauss-Kronrod rule.  F is evaluated
    once per q node; each z is then one row of e^{-2qz} times the weighted
    F.  The error estimate of each z is the q rule's summed |K21 - G10|
    plus the xi errors of F carried through the same row; if it exceeds
    _TARGET_REL of |V| (or is not finite) QuadratureError reports it.  A z
    where |V| is below the smallest normal float is a ValueError instead:
    that grid reaches too far.
    """
    t_lo, t_hi = math.log(_Q_LO / z.max()), math.log(_Q_HI / z.min())
    n = math.ceil((t_hi - t_lo) / _Q_PANEL)
    half = 0.5 * (t_hi - t_lo) / n
    t = t_lo + (2.0 * np.arange(n) + 1.0)[:, None] * half + half * _GK_X
    q = np.exp(t).ravel()
    w_k = half * q * np.tile(_GK_W, n)
    w_g = half * q * np.tile(_G_W, n)
    # an F that overflows (say, kappa^2 of a slab far thicker than the grid
    # is wide) is not finite, and QuadratureError reports it below
    with np.errstate(over="ignore", invalid="ignore"):
        f, f_err = _f_of_q(mirror, q)
    wf, dwf, werr = w_k * f, (w_k - w_g) * f, w_k * f_err
    v = np.empty_like(z)
    err = np.empty_like(z)
    for i in range(0, z.size, _BLOCK):
        e = np.exp(-2.0 * z[i:i + _BLOCK, None] * q)
        v[i:i + _BLOCK] = e @ wf
        q_err = (e * dwf).reshape(-1, n, _GK_X.size).sum(axis=2)
        err[i:i + _BLOCK] = np.abs(q_err).sum(axis=1) + e @ werr
    # a far bound where |V| is below the smallest normal float is a bad
    # grid, not a quadrature miss: the q rule has no digits left there, and
    # a V that underflows to 0 has an error estimate of 0 that would pass.
    # A mirror with no response (a sheet with eta = 0) has V = 0 at every z:
    # that is the free-space table, not an underflow.
    v_abs = np.abs(v) / (2.0 * math.pi * _C**2)
    tiny = np.finfo(float).tiny
    bad = ~(err <= _TARGET_REL * np.abs(v)) | ((v_abs < tiny) & v.any())
    if bad.any():
        i = int(np.argmax(bad))
        if v_abs[i] < tiny:
            raise ValueError(
                f"{mirror.label} at z = {z[i]:g} a0: V underflows (|V| = "
                f"{v_abs[i]:.3g} Eh, below the smallest normal float); lower "
                "z_max (--z-max-a0)")
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = err[i] / np.abs(v[i])
        raise QuadratureError(
            f"{mirror.label} at z = {z[i]:g} a0: quadrature achieved relative "
            f"error {rel:.2e} > {_TARGET_REL:g}")
    return -v / (2.0 * math.pi * _C**2)


def retarded_coefficient() -> float:
    """C4* = 3 c alpha(0) / (8 pi), the perfect-conductor retarded constant."""
    return 3.0 * _C * DEFAULT_POLARIZABILITY.static / (8.0 * math.pi)


def retarded_reference(z_au):
    """V*(z) = -C4*/z^4 on an array of z, the reference of potential ratio
    plots."""
    return -retarded_coefficient() / np.asarray(z_au, dtype=float)**4


def vdw_coefficient_integral(mirror: MirrorSpec) -> float:
    """Closed-form C3 = (1/4pi) Int alpha(i xi) (eps-1)/(eps+1) dxi.

    Independent anchor for the small-z limit of the quadrature (the factor
    (eps-1)/(eps+1) is 1 for a perfect conductor and the kappa -> inf limit
    of r_TM otherwise).  One ``_gauss_kronrod`` pass: [0, lo] in xi, decades
    in ln xi from lo up to hi = 30 w_max, and the tail [hi, inf) as xi =
    hi/u on u in [0, 1]; lo is 0.3 times the smallest response scale.
    """
    alpha = DEFAULT_POLARIZABILITY
    if mirror.kind == "perfect_conductor":
        return alpha.integral / (4.0 * math.pi)

    def f(xi, tail):
        xi = np.where(tail, hi / xi, xi)   # and dxi = (xi^2/hi) du
        a = alpha.alpha(xi) * np.where(tail, xi * xi / hi, 1.0)
        if mirror.kind == "sheet":
            return a  # r_TM -> 1 as kappa -> inf regardless of eta
        eps = mirror.effective_epsilon(xi)
        return a * (eps - 1.0) / (eps + 1.0)

    scales = [w for _, w in alpha.oscillators] + mirror.response_scales_au()
    lo, hi = 0.3 * min(scales), 30.0 * max(scales)
    s = np.append(np.arange(math.log(lo), math.log(hi), _LN10), math.log(hi))
    # panel 0 is [0, lo] in xi, the last one the tail in u, the rest decades
    tail = np.arange(s.size + 1) == s.size
    log = ~tail
    log[0] = False
    c3, _ = _gauss_kronrod(f, np.concatenate(([0.0], s[:-1], [0.0])),
                           np.concatenate(([lo], s[1:], [1.0])), log, tail, 2)
    return float(c3.sum()) / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# tabulation


_EXPONENT_TOL = 0.05


def _fit_ends(t, v) -> tuple:
    """Power-law fits on the end decades of a table, from t = ln z and V:
    (c3, c4, c5, near_exponent, far_exponent, notes), None where no fit.

    Near side targets exponent 3 (van der Waals); far side targets 4
    (retarded, bulks), then 5 (slabs).  Each side is a least-squares line
    of ln|V| against ln z over its end decade.  A side whose end decade
    holds fewer than two points, or whose exponent is not within 0.05 of a
    target, yields no coefficient but a note, and so does a table narrower
    than 2.5 decades: the fits are a report on the table and never fail.
    """
    fit = dict.fromkeys(("c3", "c4", "c5", "near_exponent", "far_exponent"))
    if not v.any():
        return (*fit.values(), ["null potential"])
    span = (t[-1] - t[0]) / _LN10
    if span < 2.5:
        return (*fit.values(), [f"table spans only {span:.2f} decades"])
    w = np.log(-v)
    notes = []
    for side, end, targets in (("near", t <= t[0] + _LN10, (3.0,)),
                               ("far", t >= t[-1] - _LN10, (4.0, 5.0))):
        if np.count_nonzero(end) < 2:
            notes.append(f"{side} decade holds one point: no fit")
            continue
        exponent = -float(np.polyfit(t[end], w[end], 1)[0])
        fit[f"{side}_exponent"] = exponent
        for p in targets:
            if abs(exponent - p) <= _EXPONENT_TOL:
                fit[f"c{p:g}"] = float(np.exp(np.mean(w[end] + p * t[end])))
                break
        else:
            notes.append(f"{side} exponent {exponent:.3f} not ~"
                         + " or ~".join(f"{p:g}" for p in targets))
    return (*fit.values(), notes)


# order of the Taylor rows a table keeps on its own grid: the amplitude
# solver's launch series (its _WKB_ORDER + 1) and badlands Q read them
_GRID_ORDER = 5


@functools.cache
def _log1p_powers(n: int) -> tuple[np.ndarray, ...]:
    """ln(1 + u)^m cut after u^(n-1), m = 0 .. min(3, n - 1): the powers a
    cubic in ln z composes with (ln(1 + u)^m starts at u^m, so the higher
    ones are zero to this order)."""
    k = np.arange(1, n)
    log1p = np.concatenate([[0.0], -(-1.0) ** k / k])
    powers = [np.eye(1, n)[0]]
    for _ in range(min(3, n - 1)):
        powers.append(np.convolve(powers[-1], log1p)[:n])
    for pw in powers:
        pw.flags.writeable = False
    return tuple(powers)


def _natural_spline(x, y):
    """(4, n-1) coefficients of the natural cubic spline through (x, y),
    those of scipy's ``CubicSpline(x, y, bc_type="natural").c`` bit for bit.

    The slopes s at the knots solve the tridiagonal system, with dx = diff(x)
    and m = diff(y)/dx,

        2 dx_0 s_0 + dx_0 s_1 = 3 (y_1 - y_0)       (and its mirror at the end)
        dx_i s_{i-1} + 2 (dx_{i-1} + dx_i) s_i + dx_{i-1} s_{i+1}
            = 3 (dx_i m_{i-1} + dx_{i-1} m_i),

    eliminated as LAPACK's dgtsv does when it does not pivot, which it never
    does on a log-uniform grid: every row is diagonally dominant.
    """
    dx = np.diff(x)
    m = np.diff(y) / dx
    d = np.empty_like(x)
    d[0], d[1:-1], d[-1] = 2 * dx[0], 2 * (dx[:-1] + dx[1:]), 2 * dx[-1]
    b = np.empty_like(x)
    b[0] = 3 * (y[1] - y[0])
    b[1:-1] = 3 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])
    b[-1] = 3 * (y[-1] - y[-2])
    h = dx.tolist()
    upper = h[:1] + h[:-1]     # row i's coefficient of s_{i+1}
    lower = h[1:] + h[-1:]     # row i+1's coefficient of s_i
    d, b = d.tolist(), b.tolist()
    for i in range(len(d) - 1):
        f = lower[i] / d[i]
        d[i + 1] -= f * upper[i]
        b[i + 1] -= f * b[i]
    b[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / d[i]
    s = np.array(b)
    t = (s[:-1] + s[1:] - 2 * m) / dx
    return np.stack((t / dx, (m - s[:-1]) / dx - t, s[:-1], y[:-1]))


class PotentialTable:
    """V(z) on a log-uniform grid, read through one log-log cubic spline.

    Grid: log-uniform (``np.geomspace``): steps of t = ln z equal within
    1e-9 relative, else ValueError.  Evaluator: the (4, n-1) coefficients
    of a natural cubic spline of ln|V| against t, fitted once.  One array
    read (``taylor``, on z of any shape; ``potential`` is its order-0 row)
    and one scalar read (``derivatives_scalar``: (V, V') at one z in plain
    floats, for the Numerov oracle's seed, chunk ends and end projection)
    take segment int((t - t0)/dt) clipped to [0, n-2]; they differ by
    rounding alone.
    Grid read (``grid_taylor``): ``taylor`` on the table's own z to order
    5, made on first use and kept, since the solver's badlands Q and launch
    series there do not depend on the energy.  Range: z outside
    [z_min, z_max], with 1e-12 slack in ln z, raises ValueError; nothing is
    extrapolated.  z and V finite, else ValueError; V < 0 and strictly
    increasing toward zero for every physical mirror; the all-zero table is
    the free-space degenerate case used by tests.  Fits (``_fit_ends``, made once here): ``c3``, ``c4``,
    ``c5``, ``near_exponent`` and ``far_exponent``, each None where its end
    decade fits no power law, and ``fit_notes``, a list saying why.
    """

    def __init__(self, z_au, v_au, label: str = ""):
        z = np.asarray(z_au, dtype=float)
        v = np.asarray(v_au, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 4:
            raise ValueError("need matching 1-d z and V arrays, >= 4 points")
        # a NaN fails every comparison below, so it is caught here first
        if not np.isfinite(z).all():
            raise ValueError("z grid must be finite (NaN or inf found)")
        if not np.isfinite(v).all():
            raise ValueError("potential must be finite (NaN or inf found)")
        if np.any(np.diff(z) <= 0) or z[0] <= 0:
            raise ValueError("z grid must be positive and strictly increasing")
        t = np.log(z)
        dt = np.diff(t)
        if not np.all(np.abs(dt - dt[0]) < 1e-9 * dt[0]):
            raise ValueError("z grid must be log-uniform (np.geomspace)")
        self.z = z
        self.V = v
        self.label = label or "custom"
        self.is_null = bool(np.all(v == 0.0))
        self._t, self._t0, self._dt = t, float(t[0]), float(dt[0])
        self._t_lo, self._t_hi = self._t0 - 1e-12, float(t[-1]) + 1e-12
        self._last = z.size - 2     # index of the last spline segment
        if not self.is_null:
            if np.any(v >= 0):
                raise ValueError("potential must be negative everywhere")
            if np.any(np.diff(v) <= 0):
                raise ValueError("potential must increase strictly toward zero")
            self._c = _natural_spline(t, np.log(-v))
            # plain-float copies for the scalar path
            self._knots = t.tolist()
            self._c0, self._c1, self._c2, self._c3 = self._c.tolist()
        (self.c3, self.c4, self.c5, self.near_exponent, self.far_exponent,
         self.fit_notes) = _fit_ends(t, v)

    # -- interpolation -----------------------------------------------------

    def _segments(self, z):
        """(segment index, s = ln z - its knot) of each z, range-checked;
        z <= 0 fails the check without numpy's log warning."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(z)
        # the extremes decide (min and max carry a NaN z, or the NaN of a
        # z < 0, into a failed comparison); the mask naming the first z
        # outside is built on the error path only
        if t.size and not (t.min() >= self._t_lo and t.max() <= self._t_hi):
            inside = (t >= self._t_lo) & (t <= self._t_hi)
            raise ValueError(f"z = {z[~inside].flat[0]:g} outside table range")
        i = ((t - self._t0) / self._dt).astype(np.intp)
        i = np.minimum(np.maximum(i, 0), self._last)
        t -= self._t.take(i)
        return i, t

    def potential(self, z_au):
        """Interpolated V(z) (Hartree) on z of any shape: ``taylor``'s
        order-0 row, so a 0-d z gives an ``np.float64``, the same float as
        in a 1-element array."""
        return self.taylor(z_au, 0)[0]

    def derivatives_scalar(self, z: float) -> tuple[float, float]:
        """(V, V') at a single z in plain floats: a_0 and a_1/z of
        ``taylor``.  A z outside the table, z <= 0 and NaN among them, is
        the ValueError of the array read."""
        t = math.log(z) if z > 0 else -math.inf
        if not self._t_lo <= t <= self._t_hi:
            raise ValueError(f"z = {z:g} outside table range")
        if self.is_null:
            return 0.0, 0.0
        i = int((t - self._t0) / self._dt)
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        s = t - self._knots[i]
        c0, c1, c2 = self._c0[i], self._c1[i], self._c2[i]
        w = ((c0 * s + c1) * s + c2) * s + self._c3[i]
        wp = (3.0 * c0 * s + 2.0 * c1) * s + c2
        v = -math.exp(w)
        return v, v * wp / z

    def taylor(self, z_au, order: int):
        """Coefficients a_k = z^k V^(k)(z) / k!, k = 0..order, of
        V(z (1 + u)) = Sum_k a_k u^k on z of any shape, from the log-log
        spline; shape (order + 1,) + z.shape.  The table's one array read.

        ln(z (1 + u)) is the segment's s plus the series of ln(1 + u), the
        cubic in s is composed with it, and exp through the recurrence
        k b_k = Sum_j j w_j b_{k-j}; every series is cut after u^order.  Row
        0, -exp of the cubic alone, is V.  Each z is read on its own, and
        the rows of a lower order are the first rows of a higher one, bit
        for bit, so the order-5 read of the table's own grid that
        ``grid_taylor`` keeps serves every lower order there.
        """
        z = np.asarray(z_au, dtype=float)
        i, s = self._segments(z.reshape(-1))
        n = order + 1
        if self.is_null:
            return np.zeros((n,) + z.shape)
        b = np.empty((n, i.size))
        # c0 straight into row 0 (i is clipped; mode="raise" buffers out=)
        c0 = self._c[0].take(i, out=b[0], mode="clip")
        c1, c2, c3 = self._c[1:].take(i, axis=1)
        # the cubic's Taylor coefficients in s past the value, only those
        # the order reaches, composed with ln(1 + u)^j, which starts at u^j
        w = sum(np.multiply.outer(pw[1:], d()) for pw, d in zip(
            _log1p_powers(n)[1:], (lambda: (3.0 * c0 * s + 2.0 * c1) * s + c2,
                                   lambda: 3.0 * c0 * s + c1, lambda: c0)))
        # row 0: ((c0 s + c1) s + c2) s + c3, exp and the sign, in place;
        # the recurrence is linear in b, so it carries -b as it is
        for c in (c1, c2, c3):
            c0 *= s
            c0 += c
        np.negative(np.exp(c0, out=c0), out=c0)
        for m in range(1, n):
            b[m] = sum(j * w[j - 1] * b[m - j] for j in range(1, m + 1)) / m
        return b.reshape((n,) + z.shape)

    @functools.cached_property
    def grid_taylor(self) -> np.ndarray:
        """``taylor(z, 5)`` on the table's own grid, read-only: made on
        first use and kept (6 x n floats).  Threads that ask at once may
        each make it; they make the same array."""
        read = self.taylor(self.z, _GRID_ORDER)
        read.flags.writeable = False
        return read

    # -- convenience -------------------------------------------------------

    @property
    def z_min(self) -> float:
        return float(self.z[0])

    @property
    def z_max(self) -> float:
        return float(self.z[-1])

    def ratio_to_retarded(self):
        """V / V* of the table's own V on its grid, V*(z) = -C4*/z^4
        (perfect-conductor retarded limit)."""
        return self.V / retarded_reference(self.z)

    @classmethod
    def from_power_law(cls, coefficient: float, exponent: float,
                       z_lo: float, z_hi: float, n_points: int):
        """Synthetic pure power-law table V = -coefficient / z^exponent."""
        z = np.geomspace(z_lo, z_hi, n_points)
        v = -coefficient / z**exponent
        return cls(z, v, label=f"synthetic -{coefficient:g}/z^{exponent:g}")

    @classmethod
    def null(cls):
        """Free-space table, V identically zero, on 1e-2..1e6 a0."""
        z = np.geomspace(1e-2, 1e6, 64)
        return cls(z, np.zeros_like(z), label="free space")


# Grid sizes a table may have: past about 5e4 points the spline's error
# (as h^4, <= 2.3e-8 at 480) is at rounding, while time and memory grow.
_MIN_POINTS = 16
_MAX_POINTS = 100_000


def build_potential_table(mirror: MirrorSpec, z_lo: float, z_hi: float,
                          n_points: int) -> PotentialTable:
    """Tabulate V(z) on a log grid; the table fits its asymptotic
    coefficients (``PotentialTable.c3`` etc.; a fit that misses leaves a
    note in ``fit_notes``)."""
    if not 0 < z_lo < z_hi < math.inf:
        raise ValueError(f"need 0 < z_lo < z_hi < inf, got [{z_lo}, {z_hi}]")
    if not _MIN_POINTS <= n_points <= _MAX_POINTS:
        raise ValueError(f"need {_MIN_POINTS} <= n_points <= {_MAX_POINTS}, "
                         f"got {n_points}")
    # the report's reference -C4*/z^4 must be a normal float at both bounds
    # (about 2.5e-77 to 1.2e77 a0); inside them the weighted F(q) of every
    # shipped mirror stays finite too
    floats = np.finfo(float)
    with np.errstate(over="ignore", divide="ignore"):
        v_star = -retarded_reference(np.array([z_lo, z_hi], dtype=float))
    for name, bound, v in zip(("z_lo", "z_hi"), (z_lo, z_hi), v_star):
        if not floats.tiny <= v <= floats.max:
            raise ValueError(f"{name} = {bound:g} a0: C4*/z^4 = {v:g} is "
                             "not a normal float")
    z = np.geomspace(z_lo, z_hi, n_points)
    v = _potential(mirror, z)
    return PotentialTable(z, v, label=mirror.label)


# Grid wide enough that the WKB badlands function falls below 1e-8 on both
# ends for every shipped mirror and every energy the solver is asked for.
SOLVER_Z_LO = 1e-8
SOLVER_Z_HI = 1e7
SOLVER_POINTS = 480


def build_solver_table(mirror: MirrorSpec,
                       n_points: int = SOLVER_POINTS) -> PotentialTable:
    """Potential table on the extended grid used for reflection solves."""
    return build_potential_table(mirror, SOLVER_Z_LO, SOLVER_Z_HI, n_points)
