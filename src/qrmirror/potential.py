"""Zero-temperature Casimir-Polder potential of a ground-state atom above
planar mirrors, tabulated on a log grid with asymptotic coefficients.

The potential is a double quadrature over imaginary frequency xi and the
transverse variable kappa >= 1 (atomic units, alpha-hat in volume units):

    V(z) = -(1/(2 pi c^3)) Int_0^inf dxi xi^3 alpha(i xi)
                Int_1^inf dkappa e^{-2 kappa xi z / c}
                       [ (2 kappa^2 - 1) r_TM - r_TE ]

Both integrals are evaluated as arrays.  The kappa integral is a fixed
Gauss-Legendre rule on geometric panels; the xi integral is a 21-point
Gauss-Kronrod rule applied to all of its panels in one numpy pass, with
only the panels over the error budget bisected and passed again.  Each pass
evaluates the reflection amplitudes once, on every (xi, kappa) node pair.

The overall constant is not taken on trust: it is locked by two anchors that
the perfect-conductor potential must reproduce simultaneously,

    z -> 0:    V -> -C3/z^3,  C3 = (1/4pi) Int alpha(i xi) dxi
    z -> inf:  V -> -C4/z^4,  C4 = 3 c alpha(0) / (8 pi)

both of which are checked by the test suite against the tabulated reference
values (0.25 Eh a0^3 and 73.6 Eh a0^4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from numpy.polynomial.legendre import leggauss

from .constants import CONSTANTS
from .optics import (
    DEFAULT_POLARIZABILITY,
    DielectricModel,
    PorousSpec,
    SheetModel,
    bruggeman_mix,
    fresnel,
    sheet_reflection,
    slab_reflection,
)

_C = CONSTANTS.c_au
_EXP_CUT = 60.0          # e^{-60} ~ 9e-27: kappa integral truncation
_GL_NODES, _GL_WEIGHTS = leggauss(24)


class QuadratureError(RuntimeError):
    """Raised when the potential quadrature misses its error target."""


class AsymptoticsError(ValueError):
    """Raised when a power-law fit cannot converge on the table range."""


# ---------------------------------------------------------------------------
# mirror specification


@dataclass(frozen=True)
class MirrorSpec:
    """Planar mirror: perfect conductor, bulk, finite slab, sheet or porous."""

    kind: str
    dielectric: DielectricModel | None = None
    thickness_au: float | None = None
    sheet: SheetModel | None = None
    porous_spec: PorousSpec | None = None

    _KINDS = ("perfect_conductor", "bulk", "slab", "sheet", "porous")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown mirror kind {self.kind!r}")
        if self.kind in ("bulk", "slab"):
            if self.dielectric is None:
                raise ValueError(f"{self.kind} mirror needs a dielectric model")
            if self.dielectric.is_vacuum:
                raise ValueError("vacuum is not a mirror")
        if self.kind == "slab":
            if self.thickness_au is None or not 0 < self.thickness_au < math.inf:
                raise ValueError("slab mirror needs a finite thickness > 0, "
                                 f"got {self.thickness_au}")
        if self.kind == "sheet" and self.sheet is None:
            raise ValueError("sheet mirror needs a SheetModel")
        if self.kind == "porous":
            if self.porous_spec is None:
                raise ValueError("porous mirror needs a PorousSpec")
            if self.porous_spec.host.is_vacuum:
                raise ValueError("porous host must not be vacuum")
            if self.porous_spec.porosity == 1.0:
                raise ValueError("porosity 1 leaves vacuum: not a mirror")

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
        return cls(kind="porous", porous_spec=PorousSpec(host, porosity))

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
        f = self.porous_spec.porosity
        return f"porous {self.porous_spec.host.name} f={f:g}"

    def response_scales_au(self) -> list[float]:
        """Imaginary-frequency scales structuring the response (Eh)."""
        scales: list[float] = []
        model = self.dielectric
        if self.kind == "porous":
            model = self.porous_spec.host
        if model is not None:
            scales += [math.sqrt(o.resonance_sq) for o in model.oscillators]
        if self.kind == "slab":
            scales.append(_C / (2.0 * self.thickness_au))
        return scales

    def effective_epsilon(self, xi):
        """eps(i xi) presented to the field (Bruggeman-mixed for porous)."""
        if self.kind == "bulk" or self.kind == "slab":
            return self.dielectric.epsilon(xi)
        if self.kind == "porous":
            return bruggeman_mix(self.porous_spec, xi)
        raise ValueError(f"{self.kind} mirror has no dielectric function")

    def reflection(self, xi, kappa):
        """(r_TM, r_TE) at imaginary frequency xi and transverse kappa >= 1.

        Not defined for the perfect conductor, whose kernel is closed-form.
        """
        if self.kind == "sheet":
            return sheet_reflection(self.sheet, xi, kappa)
        if self.kind == "slab":
            return slab_reflection(self.dielectric, self.thickness_au, xi, kappa)
        return fresnel(self.effective_epsilon(xi), kappa)


# ---------------------------------------------------------------------------
# kappa kernels:  K(xi, a) = Int_1^inf dkappa e^{-a kappa} G(xi, kappa),
# with G = (2 kappa^2 - 1) r_TM - r_TE and a = 2 xi z / c.  Every function
# here takes arrays: one call serves all xi nodes of a quadrature pass.


def _kernel_perfect_conductor(a):
    """Closed form for r_TM = 1, r_TE = -1: Int 2 kappa^2 e^{-a kappa}."""
    return 2.0 * np.exp(-a) * (a * a + 2.0 * a + 2.0) / a**3


def _kappa_panels(a):
    """(u0, u_max, count) of the geometric u = kappa - 1 panels of each a.

    Panels grow by factor 3 from u0 up to the exponential cutoff 60/a, so
    every algebraic variation scale of the reflection amplitudes and the
    exponential decay scale are resolved log-uniformly.
    """
    u_max = _EXP_CUT / a
    u0 = np.minimum(0.25, u_max / 8.0)
    count = 1 + np.maximum(0.0, np.ceil(np.log(u_max / u0) / math.log(3.0)))
    return u0, u_max, count.astype(np.intp)


def _kappa_nodes(u0, u_max, count):
    """Gauss-Legendre nodes of the panels of ``_kappa_panels``, ragged.

    Returns (owner, kappa, weight): the nodes of every a, concatenated, with
    the index of the a each node belongs to.
    """
    panel_owner = np.repeat(np.arange(count.size), count)
    first = np.cumsum(count) - count
    j = np.arange(panel_owner.size) - np.repeat(first, count)
    upper = np.minimum(u0[panel_owner] * 3.0**j, u_max[panel_owner])
    lower = np.empty_like(upper)
    lower[1:] = upper[:-1]
    lower[first] = 0.0
    half = 0.5 * (upper - lower)
    mid = 0.5 * (upper + lower)
    kappa = 1.0 + mid[:, None] + half[:, None] * _GL_NODES
    weight = half[:, None] * _GL_WEIGHTS
    return (np.repeat(panel_owner, _GL_NODES.size), kappa.ravel(),
            weight.ravel())


def _kernel(mirror: MirrorSpec, xi, a):
    """K(xi, a) on arrays of xi and a = 2 xi z / c.

    The ragged (xi, kappa) node set is processed in blocks of about
    _BLOCK_PAIRS pairs, which bounds memory and keeps each block in cache.
    """
    if mirror.kind == "perfect_conductor":
        return _kernel_perfect_conductor(a)
    u0, u_max, count = _kappa_panels(a)
    ends = np.cumsum(count * _GL_NODES.size)
    out = np.empty_like(a)
    start = 0
    while start < a.size:
        done = ends[start - 1] if start else 0
        stop = max(start + 1,
                   int(np.searchsorted(ends, done + _BLOCK_PAIRS, "right")))
        owner, kappa, w = _kappa_nodes(u0[start:stop], u_max[start:stop],
                                       count[start:stop])
        r_tm, r_te = mirror.reflection(xi[start:stop][owner], kappa)
        g = (2.0 * kappa * kappa - 1.0) * r_tm - r_te
        out[start:stop] = np.bincount(
            owner, weights=w * np.exp(-a[start:stop][owner] * kappa) * g,
            minlength=stop - start)
        start = stop
    return out


# ---------------------------------------------------------------------------
# xi quadrature: 21-point Gauss-Kronrod rule with its embedded 10-point Gauss
# rule (the pair of QUADPACK's qk21), applied to a whole set of panels at once


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

_PANEL_RTOL = 1e-11    # budget of |K21 - G10| per panel, relative to the total
_NEGLIGIBLE = 1e-11    # a tail decade below this share of the total ends it
# Refinement stops after _MAX_ROUNDS bisection rounds, or once more than
# _MAX_PANELS panels are pending; the panels still over budget then count
# with their error estimates, which QuadratureError reports.
_MAX_ROUNDS = 40
_MAX_PANELS = 1024
_TARGET_REL = 1e-6     # relative accuracy that cp_potential_point must reach
_BLOCK_PAIRS = 8192    # (xi, kappa) pairs per kernel block
_LN10 = math.log(10.0)


def _gauss_kronrod(f, lo, hi, log):
    """Per-panel integrals of f over xi and the summed |K21 - G10|.

    Panel i spans [lo[i], hi[i]] in s = ln xi where log[i], else in xi.
    f is evaluated once per bisection round, on every node of that round.
    Panels over budget are bisected until all pass or refinement stops.
    """
    n = lo.size
    origin = np.arange(n)
    values = np.zeros(n)
    err = 0.0
    for rnd in range(_MAX_ROUNDS):
        half = 0.5 * (hi - lo)
        t = 0.5 * (hi + lo)[:, None] + half[:, None] * _GK_X
        xi = np.where(log[:, None], np.exp(t), t)
        fx = f(xi.ravel()).reshape(xi.shape)
        fx *= np.where(log[:, None], xi, 1.0) * half[:, None]
        k = fx @ _GK_W
        e = np.abs(k - fx @ _G_W)
        total = values.sum() + k.sum()
        ok = e <= _PANEL_RTOL * abs(total)
        if (rnd == _MAX_ROUNDS - 1 or lo.size > _MAX_PANELS
                or not math.isfinite(total)):
            ok[:] = True
        values += np.bincount(origin[ok], weights=k[ok], minlength=n)
        err += float(e[ok].sum())
        if ok.all():
            break
        bad = ~ok
        lo, hi, log, origin = lo[bad], hi[bad], log[bad], origin[bad]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        log, origin = np.tile(log, 2), np.tile(origin, 2)
    return values, err


# ---------------------------------------------------------------------------
# potential at a point


def cp_potential_point(mirror: MirrorSpec, z_au: float) -> float:
    """CP potential V(z) in Hartree at distance z (a0) from the mirror.

    The xi integral is split into panels: [0, lo] in xi, then decades in
    s = ln xi from lo up to hi, then decades of the tail beyond hi, where
    lo and hi are 0.3 and 30 times the smallest and largest response scale
    (atom, mirror and c/2z).  All panels go through one vectorised 21-point
    Gauss-Kronrod pass; those whose |K21 - G10| is over budget are bisected
    and evaluated again, together, until every panel passes.  Since c/2z is
    a scale, a = 2 xi z / c >= 30 at hi, so the tail is damped by
    e^{-a} <= 1e-13: its decades are summed until one adds less than
    1e-11 of the total.  Raises QuadratureError with the achieved error
    estimate (the summed |K21 - G10|) if the relative accuracy _TARGET_REL
    = 1e-6 cannot be met.  The atom is DEFAULT_POLARIZABILITY.
    """
    if not 0 < z_au < math.inf:
        raise ValueError(f"distance must be positive and finite, got {z_au}")
    alpha = DEFAULT_POLARIZABILITY

    def integrand(xi):
        a = 2.0 * xi * z_au / _C
        return xi**3 * alpha.alpha(xi) * _kernel(mirror, xi, a)

    # Decade-wise panels between the smallest and largest response scales:
    # the integrand is smooth but its mass can hide in a narrow log-window,
    # which a coarse rule over many decades is free to miss.
    scales = [w for _, w in alpha.oscillators]
    scales += mirror.response_scales_au()
    scales.append(_C / (2.0 * z_au))
    lo = 0.3 * min(scales)
    hi = 30.0 * max(scales)
    # panel i > 0 spans [s_edges[i-1], s_edges[i]]; the last is [hi, 10 hi]
    s_edges = np.append(np.arange(math.log(lo), math.log(hi), _LN10),
                        [math.log(hi), math.log(hi) + _LN10])
    values, err = _gauss_kronrod(
        integrand, np.append(0.0, s_edges[:-1]), np.append(lo, s_edges[1:]),
        np.arange(s_edges.size) > 0)
    total = float(values.sum())
    tail, s_tail = values[-1], s_edges[-1]
    while abs(tail) > _NEGLIGIBLE * abs(total):
        (tail,), e = _gauss_kronrod(integrand, np.array([s_tail]),
                                    np.array([s_tail + _LN10]),
                                    np.array([True]))
        total += tail
        err += e
        s_tail += _LN10
    if not math.isfinite(total) or (total != 0 and err / abs(total) > _TARGET_REL):
        raise QuadratureError(
            f"xi quadrature at z = {z_au:g} a0 achieved relative error "
            f"{err / abs(total) if total else math.inf:.2e} > {_TARGET_REL:g}"
        )
    return -total / (2.0 * math.pi * _C**3)


def retarded_coefficient() -> float:
    """C4* = 3 c alpha(0) / (8 pi), the perfect-conductor retarded constant."""
    return 3.0 * _C * DEFAULT_POLARIZABILITY.static / (8.0 * math.pi)


def retarded_reference(z_au):
    """V*(z) = -C4*/z^4, the reference used for potential ratio plots."""
    z = np.asarray(z_au, dtype=float)
    v = -retarded_coefficient() / z**4
    return v if v.ndim else float(v)


def vdw_coefficient_integral(mirror: MirrorSpec) -> float:
    """Closed-form C3 = (1/4pi) Int alpha(i xi) (eps-1)/(eps+1) dxi.

    Independent anchor for the small-z limit of the quadrature (the factor
    (eps-1)/(eps+1) is 1 for a perfect conductor and the kappa -> inf limit
    of r_TM otherwise).
    """
    alpha = DEFAULT_POLARIZABILITY
    if mirror.kind == "perfect_conductor":
        return alpha.integral / (4.0 * math.pi)

    def near_field_ratio(xi):
        if mirror.kind == "sheet":
            return 1.0  # r_TM -> 1 as kappa -> inf regardless of eta
        eps = mirror.effective_epsilon(xi)
        return (eps - 1.0) / (eps + 1.0)

    def f(xi):
        return alpha.alpha(xi) * near_field_ratio(xi)

    scales = [w for _, w in alpha.oscillators] + mirror.response_scales_au()
    lo, hi = 0.3 * min(scales), 30.0 * max(scales)
    val = (
        quad(f, 0.0, lo, epsabs=0.0, epsrel=1e-10)[0]
        + quad(f, lo, hi, epsabs=0.0, epsrel=1e-10)[0]
        + quad(f, hi, np.inf, epsabs=0.0, epsrel=1e-10)[0]
    )
    return val / (4.0 * math.pi)


# ---------------------------------------------------------------------------
# tabulation


_EXPONENT_TOL = 0.05


@dataclass
class Asymptotics:
    c3: float | None = None
    c4: float | None = None
    c5: float | None = None
    near_exponent: float | None = None
    far_exponent: float | None = None
    notes: list[str] = field(default_factory=list)


def _decade_fit(t: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    """LS fit w = b + slope * t; returns (slope, b)."""
    slope, b = np.polyfit(t, w, 1)
    return float(slope), float(b)


def extract_asymptotics(table: "PotentialTable") -> Asymptotics:
    """Power-law fits on the extreme decades of a potential table.

    Near side targets exponent 3 (van der Waals); far side targets 4
    (retarded, bulks) or 5 (slabs).  A side whose local exponent is not
    within 0.05 of a target yields no coefficient.
    """
    if table.is_null:
        return Asymptotics(notes=["null potential"])
    t = np.log(table.z)
    w = np.log(-table.V)
    span = (t[-1] - t[0]) / math.log(10.0)
    if span < 2.5:
        raise AsymptoticsError(f"table spans only {span:.2f} decades")
    ln10 = math.log(10.0)
    near = t <= t[0] + ln10
    far = t >= t[-1] - ln10
    out = Asymptotics()

    slope, _ = _decade_fit(t[near], w[near])
    out.near_exponent = -slope
    if abs(out.near_exponent - 3.0) <= _EXPONENT_TOL:
        out.c3 = float(np.exp(np.mean(w[near] + 3.0 * t[near])))
    else:
        out.notes.append(f"near exponent {out.near_exponent:.3f} not ~3")

    slope, _ = _decade_fit(t[far], w[far])
    out.far_exponent = -slope
    if abs(out.far_exponent - 4.0) <= _EXPONENT_TOL:
        out.c4 = float(np.exp(np.mean(w[far] + 4.0 * t[far])))
    elif abs(out.far_exponent - 5.0) <= _EXPONENT_TOL:
        out.c5 = float(np.exp(np.mean(w[far] + 5.0 * t[far])))
    else:
        out.notes.append(f"far exponent {out.far_exponent:.3f} neither ~4 nor ~5")
    return out


class PotentialTable:
    """V(z) on a log-uniform grid, read through one log-log cubic spline.

    Grid: log-uniform (``np.geomspace``): steps of t = ln z equal within
    1e-9 relative, else ValueError.  Evaluator: the (4, n-1) coefficients
    of a natural cubic spline of ln|V| against t, fitted once.  The scalar
    path (``derivatives_scalar``, the solver's hot loop) and the array paths
    take segment int((t - t0)/dt) clipped to [0, n-2] and run the same
    Horner and chain-rule arithmetic; only ``math`` and numpy log/exp round
    differently.  Range: z outside [z_min, z_max], with 1e-12 slack in ln z,
    raises ValueError; nothing is extrapolated.  V < 0 and strictly
    increasing toward zero for every physical mirror; the all-zero table is
    the free-space degenerate case used by tests.
    """

    def __init__(self, z_au, v_au, label: str = "",
                 require_asymptotics: bool = False):
        z = np.asarray(z_au, dtype=float)
        v = np.asarray(v_au, dtype=float)
        if z.ndim != 1 or z.shape != v.shape or z.size < 4:
            raise ValueError("need matching 1-d z and V arrays, >= 4 points")
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
            self._c = CubicSpline(t, np.log(-v), bc_type="natural").c
            # plain-float copies for the scalar hot loop
            self._knots = t.tolist()
            self._c0, self._c1, self._c2, self._c3 = self._c.tolist()
        try:
            self.asymptotics = extract_asymptotics(self)
        except AsymptoticsError:
            if require_asymptotics:
                raise
            self.asymptotics = Asymptotics(notes=["table too narrow for fits"])
        if require_asymptotics:
            a = self.asymptotics
            if a.c3 is None or (a.c4 is None and a.c5 is None):
                raise AsymptoticsError(
                    f"{self.label}: asymptotic fits did not converge: {a.notes}"
                )

    # -- interpolation -----------------------------------------------------

    def _segments(self, z):
        """(segment index, s = ln z - its knot) of each z, range-checked;
        z <= 0 fails the check without numpy's log warning."""
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.log(z)
        inside = (t >= self._t_lo) & (t <= self._t_hi)
        if not inside.all():
            raise ValueError(f"z = {z[~inside].flat[0]:g} outside table range")
        i = ((t - self._t0) / self._dt).astype(np.intp)
        i = np.minimum(np.maximum(i, 0), self._last)
        return i, t - self._t[i]

    def potential(self, z_au):
        """Interpolated V(z) (Hartree); accepts scalars or arrays."""
        z = np.asarray(z_au, dtype=float)
        if not z.ndim:
            return self.derivatives_scalar(float(z))[0]
        i, s = self._segments(z)
        if self.is_null:
            return np.zeros_like(z)
        c0, c1, c2, c3 = self._c.take(i, axis=1)
        return -np.exp(((c0 * s + c1) * s + c2) * s + c3)

    def derivatives_scalar(self, z: float) -> tuple[float, float, float]:
        """(V, V', V'') at a single z: ``derivatives`` in plain floats."""
        t = math.log(z)
        if not self._t_lo <= t <= self._t_hi:
            raise ValueError(f"z = {z:g} outside table range")
        if self.is_null:
            return 0.0, 0.0, 0.0
        i = int((t - self._t0) / self._dt)
        if i < 0:
            i = 0
        elif i > self._last:
            i = self._last
        s = t - self._knots[i]
        c0, c1, c2 = self._c0[i], self._c1[i], self._c2[i]
        w = ((c0 * s + c1) * s + c2) * s + self._c3[i]
        wp = (3.0 * c0 * s + 2.0 * c1) * s + c2
        wpp = 6.0 * c0 * s + 2.0 * c1
        v = -math.exp(w)
        vp = v * wp / z
        vpp = v * (wp * wp + wpp - wp) / (z * z)
        return v, vp, vpp

    def derivatives(self, z_au):
        """(V, V', V'') on an array of z, from the log-log spline."""
        z = np.asarray(z_au, dtype=float)
        i, s = self._segments(z)
        if self.is_null:
            zero = np.zeros_like(z)
            return zero, zero.copy(), zero.copy()
        c0, c1, c2, c3 = self._c.take(i, axis=1)
        w = ((c0 * s + c1) * s + c2) * s + c3
        wp = (3.0 * c0 * s + 2.0 * c1) * s + c2
        wpp = 6.0 * c0 * s + 2.0 * c1
        v = -np.exp(w)
        vp = v * wp / z
        vpp = v * (wp * wp + wpp - wp) / (z * z)
        return v, vp, vpp

    # -- convenience -------------------------------------------------------

    @property
    def z_min(self) -> float:
        return float(self.z[0])

    @property
    def z_max(self) -> float:
        return float(self.z[-1])

    @property
    def c3(self):
        return self.asymptotics.c3

    @property
    def c4(self):
        return self.asymptotics.c4

    @property
    def c5(self):
        return self.asymptotics.c5

    def ratio_to_retarded(self):
        """V / V* on the grid, V*(z) = -C4*/z^4 (perfect-conductor retarded
        limit)."""
        return self.potential(self.z) / retarded_reference(self.z)

    @classmethod
    def from_power_law(cls, coefficient: float, exponent: float,
                       z_lo: float = 1e-2, z_hi: float = 1e6,
                       n_points: int = 200, label: str | None = None):
        """Synthetic pure power-law table V = -coefficient / z^exponent."""
        z = np.geomspace(z_lo, z_hi, n_points)
        v = -coefficient / z**exponent
        return cls(z, v, label=label or f"synthetic -{coefficient:g}/z^{exponent:g}")

    @classmethod
    def null(cls, z_lo: float = 1e-2, z_hi: float = 1e6, n_points: int = 64):
        """Free-space table, V identically zero."""
        z = np.geomspace(z_lo, z_hi, n_points)
        return cls(z, np.zeros_like(z), label="free space")


def build_potential_table(mirror: MirrorSpec, z_lo: float, z_hi: float,
                          n_points: int) -> PotentialTable:
    """Tabulate V(z) on a log grid and fit the asymptotic coefficients."""
    if not 0 < z_lo < z_hi < math.inf:
        raise ValueError(f"need 0 < z_lo < z_hi < inf, got [{z_lo}, {z_hi}]")
    if n_points < 16:
        raise ValueError("need n_points >= 16")
    z = np.geomspace(z_lo, z_hi, n_points)
    v = np.empty_like(z)
    for i, zi in enumerate(z):
        try:
            v[i] = cp_potential_point(mirror, zi)
        except QuadratureError as exc:
            raise QuadratureError(f"{mirror.label} at z = {zi:g} a0: {exc}") from exc
    return PotentialTable(z, v, label=mirror.label, require_asymptotics=True)


# Grid wide enough that the WKB badlands function falls below 1e-8 on both
# ends for every shipped mirror and every energy the solver is asked for.
SOLVER_Z_LO = 1e-8
SOLVER_Z_HI = 1e7
SOLVER_POINTS = 480


def build_solver_table(mirror: MirrorSpec,
                       n_points: int = SOLVER_POINTS) -> PotentialTable:
    """Potential table on the extended grid used for reflection solves."""
    return build_potential_table(mirror, SOLVER_Z_LO, SOLVER_Z_HI, n_points)
