"""Catalog of every explicit chart family the verification engine covers.

Stable keys: thm1.i..thm1.viii (generalized cylinders over a flat surface
factor, flat block of the shape operator), thm2.i..viii (cylinders over a
curved surface factor, simple zero curvature), thm3.i..viii (three distinct
nonzero curvatures, middle one double), ex41 (the explicit four-distinct-
curvature hypersurface), rem42 (its arbitrary-dimension extension), plus the
building blocks intsurf.i..viii (2-parameter integral surfaces) and
intcurve.A..G (1-parameter integral curves).

Each constructor transcribes the displayed component formulas for its case
and enforces the displayed side conditions numerically at build time.  Two
displays contain a provable slip (a lone cosh(u) where only cosh(t) yields a
nondegenerate metric, in thm2.vi / thm3.vi / intsurf.viii); the corrected
form is used, since the stated congruence targets force it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .ambient import Signature
from .errors import ConstraintError, ContractViolation, DomainError, UnexpectedIndex
from .expr import parse, var_names_for
from .immersion import (ImmersionChart, beltrami_residual, gauss_codazzi_residual,
                        packet, submanifold_packet)
from .profiles import (DerivativeProfile, ExprProfile, constraint_residual,
                       make_profile_pair, solve_psi, solve_psi_offsets)
from .spectral import CLUSTER_TOL
from .sweep import grid_points, interior_grid, sweep

E5_2 = Signature(5, 2)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    case_id: str = ""
    parameters: dict = field(default_factory=dict)
    profiles: dict = field(default_factory=dict)
    domain: tuple | None = None

    @property
    def key(self) -> str:
        return f"{self.family}.{self.case_id}" if self.case_id else self.family


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    kind: str                      # hypersurface | surface | curve
    description: str
    conditions: tuple              # human-readable side conditions
    components: tuple              # expression templates, {param} substituted
    domain: tuple
    pair_kind: str | None = None   # sum1 | diffP | diffM
    profile_names: tuple = ()
    psi_inequality: int = 0        # +1: 1-2psi'<0, -1: 1+2psi'<0, +2: 2psi'-1>0
    params: dict = field(default_factory=dict)
    expected_index: int = 2
    structure: tuple = ()          # family-specific structural expectations
    orientation: tuple | None = None


_TH_DEFAULT = "0.3*s + 0.2"
_PAIR_COND = {
    "sum1": "phi'^2 + psi'^2 = 1",
    "diffP": "phi'^2 - psi'^2 = 1",
    "diffM": "phi'^2 - psi'^2 = -1",
}
_INEQ_COND = {1: "1 - 2*psi' < 0", -1: "1 + 2*psi' < 0", 2: "2*psi' - 1 > 0"}


def _hyp(key, comps, pair=None, ineq=0, domain=None, params=None, desc="",
         structure=(), orientation=None, names=("phi", "psi")):
    conds = []
    if pair:
        conds.append(_PAIR_COND[pair].replace("phi", names[0]).replace("psi", names[1]))
    if ineq:
        conds.append(_INEQ_COND[ineq])
    if params:
        conds.extend(f"{k} != 0" for k in params if k in ("a",))
    return CatalogEntry(
        key=key, kind="hypersurface", description=desc, conditions=tuple(conds),
        components=comps, domain=domain or ((0.1, 0.9),) + ((-0.8, 0.8),) * 3,
        pair_kind=pair, profile_names=names if (pair or ineq) else (),
        psi_inequality=ineq, params=params or {}, structure=structure,
        orientation=orientation,
    )


_D_PAIR1 = ((0.1, 0.9), (-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8))
_D_DEG = ((0.6, 1.4), (-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8))


def _build_registry():
    reg = {}

    def add(entry):
        reg[entry.key] = entry

    # flat-block generalized cylinders: two flat directions, shape operator
    # zero eigenvalue of multiplicity >= 2
    t1 = ("thm1", ("zero>=2",))
    add(_hyp("thm1.i", ("t", "u", "phi(s)*cos(v)", "phi(s)*sin(v)", "psi(s)"),
             pair="sum1", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a spacelike 2-plane, circular profile orbit"))
    add(_hyp("thm1.ii", ("phi(s)*sinh(v)", "t", "u", "phi(s)*cosh(v)", "psi(s)"),
             pair="sum1", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a mixed 2-plane, hyperbolic orbit"))
    add(_hyp("thm1.iii", ("psi(s)", "t", "u", "phi(s)*cos(v)", "phi(s)*sin(v)"),
             pair="diffM", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a mixed 2-plane, circular orbit, timelike arc"))
    add(_hyp("thm1.iv", ("phi(s)*cosh(v)", "t", "u", "phi(s)*sinh(v)", "psi(s)"),
             pair="diffP", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a mixed 2-plane, hyperbolic orbit, timelike arc"))
    add(_hyp("thm1.v", ("0.5*v^2*s + psi(s) + s", "t", "u", "v*s", "0.5*v^2*s + psi(s)"),
             ineq=1, domain=_D_DEG, structure=t1[1],
             desc="cylinder with lightlike-parabolic orbit"))
    add(_hyp("thm1.vi", ("phi(s)*cos(v)", "phi(s)*sin(v)", "t", "u", "psi(s)"),
             pair="diffP", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a timelike 2-plane, circular orbit"))
    add(_hyp("thm1.vii", ("phi(s)*sinh(v)", "psi(s)", "t", "u", "phi(s)*cosh(v)"),
             pair="diffM", domain=_D_PAIR1, structure=t1[1],
             desc="cylinder over a timelike 2-plane, hyperbolic orbit"))
    add(_hyp("thm1.viii", ("0.5*s*v^2 + psi(s)", "s*v", "t", "u", "0.5*s*v^2 + psi(s) + s"),
             ineq=-1, domain=_D_DEG, structure=t1[1],
             desc="cylinder over a timelike 2-plane, lightlike-parabolic orbit"))

    # cylinders over a curved surface factor: double nonzero curvature plus a
    # simple zero from the flat line direction
    t2 = ("simple-zero+double",)
    d_sinh = ((0.1, 0.9), (0.3, 1.1), (-0.8, 0.8), (-0.8, 0.8))
    d_sin = ((0.1, 0.9), (0.4, 1.2), (-0.8, 0.8), (-0.8, 0.8))
    add(_hyp("thm2.i", ("v", "phi(s)*cosh(t)", "phi(s)*sinh(t)*cos(u)",
                        "phi(s)*sinh(t)*sin(u)", "psi(s)"),
             pair="diffP", domain=d_sinh, structure=t2,
             desc="line cylinder over hyperbolic-surface orbits"))
    add(_hyp("thm2.ii", ("v", "psi(s)", "phi(s)*cos(t)", "phi(s)*sin(t)*cos(u)",
                         "phi(s)*sin(t)*sin(u)"),
             pair="diffM", domain=d_sin, structure=t2,
             desc="line cylinder over round-sphere orbits"))
    add(_hyp("thm2.iii", ("phi(s)*cosh(t)*sin(u)", "phi(s)*cosh(t)*cos(u)",
                          "phi(s)*sinh(t)", "psi(s)", "v"),
             pair="diffP", domain=_D_PAIR1, structure=t2,
             desc="line cylinder over Lorentzian hyperbolic orbits"))
    add(_hyp("thm2.iv", ("psi(s)", "phi(s)*sinh(t)", "phi(s)*cosh(t)*cos(u)",
                         "phi(s)*cosh(t)*sin(u)", "v"),
             pair="diffM", domain=_D_PAIR1, structure=t2,
             desc="line cylinder over Lorentzian sphere orbits, timelike arc"))
    add(_hyp("thm2.v", ("v", "phi(s)*sinh(t)", "phi(s)*cosh(t)*cos(u)",
                        "phi(s)*cosh(t)*sin(u)", "psi(s)"),
             pair="sum1", domain=_D_PAIR1, structure=t2,
             desc="line cylinder over Lorentzian sphere orbits, spacelike arc"))
    add(_hyp("thm2.vi", ("phi(s)*sinh(t)*cos(u)", "phi(s)*sinh(t)*sin(u)",
                         "phi(s)*cosh(t)", "psi(s)", "v"),
             pair="sum1", domain=d_sinh, structure=t2,
             desc="line cylinder over index-2 sphere orbits"))
    add(_hyp("thm2.vii", ("0.5*s*(t^2+u^2) + psi(s)", "v", "s*t", "s*u",
                          "0.5*s*(t^2+u^2) + psi(s) - s"),
             ineq=1, domain=_D_DEG, structure=t2,
             desc="line cylinder over a lightlike-parabolic surface"))
    add(_hyp("thm2.viii", ("0.5*s*(t^2-u^2) + psi(s)", "s*t", "s*u", "v",
                           "0.5*s*(t^2-u^2) + psi(s) + s"),
             ineq=-1, domain=_D_DEG, structure=t2,
             desc="line cylinder over a Lorentzian lightlike-parabolic surface"))

    # fully curved: three distinct nonzero curvatures, the middle one double
    t3 = ("1+2+1-nonzero",)
    n3 = ("phi1", "phi2")
    add(_hyp("thm3.i", ("phi2(s)*sinh(v)", "phi1(s)*cosh(t)", "phi1(s)*sinh(t)*cos(u)",
                        "phi1(s)*sinh(t)*sin(u)", "phi2(s)*cosh(v)"),
             pair="diffP", domain=d_sinh, structure=t3, names=n3,
             desc="rotational hypersurface: hyperbolic surface times hyperbola"))
    add(_hyp("thm3.ii", ("phi2(s)*cos(v)", "phi2(s)*sin(v)", "phi1(s)*cos(t)",
                         "phi1(s)*sin(t)*cos(u)", "phi1(s)*sin(t)*sin(u)"),
             pair="diffM", domain=d_sin, structure=t3, names=n3,
             desc="rotational hypersurface: round sphere times timelike circle"))
    add(_hyp("thm3.iii", ("phi1(s)*cosh(t)*sin(u)", "phi1(s)*cosh(t)*cos(u)",
                          "phi1(s)*sinh(t)", "phi2(s)*cos(v)", "phi2(s)*sin(v)"),
             pair="diffP", domain=_D_PAIR1, structure=t3, names=n3,
             desc="rotational hypersurface: Lorentzian hyperbolic surface times circle"))
    add(_hyp("thm3.iv", ("phi2(s)*sinh(v)", "phi1(s)*sinh(t)", "phi1(s)*cosh(t)*cos(u)",
                         "phi1(s)*cosh(t)*sin(u)", "phi2(s)*cosh(v)"),
             pair="sum1", domain=_D_PAIR1, structure=t3, names=n3,
             desc="rotational hypersurface: Lorentzian sphere times hyperbola"))
    add(_hyp("thm3.v", ("phi2(s)*cosh(v)", "phi1(s)*sinh(t)", "phi1(s)*cosh(t)*cos(u)",
                        "phi1(s)*cosh(t)*sin(u)", "phi2(s)*sinh(v)"),
             pair="diffM", domain=_D_PAIR1, structure=t3, names=n3,
             desc="rotational hypersurface: Lorentzian sphere times timelike hyperbola"))
    add(_hyp("thm3.vi", ("phi1(s)*sinh(t)*cos(u)", "phi1(s)*sinh(t)*sin(u)",
                         "phi1(s)*cosh(t)", "phi2(s)*cos(v)", "phi2(s)*sin(v)"),
             pair="sum1", domain=d_sinh, structure=t3, names=n3,
             desc="rotational hypersurface: index-2 sphere times circle"))
    add(_hyp("thm3.vii", ("0.5*s*(t^2+u^2-v^2) - {a}*v^2 + psi(s)", "v*(2*{a}+s)",
                          "s*t", "s*u", "0.5*s*(t^2+u^2-v^2) - {a}*v^2 + psi(s) - s"),
             ineq=1, domain=_D_DEG, params={"a": 0.7}, structure=t3,
             desc="lightlike-parabolic hypersurface, offset rotation block"))
    add(_hyp("thm3.viii", ("0.5*s*(t^2-u^2-v^2) + {a}*v^2 + psi(s)", "s*t", "s*u",
                           "v*(s-2*{a})", "0.5*s*(t^2-u^2-v^2) + {a}*v^2 + psi(s) + s"),
             ineq=-1, domain=((0.3, 1.1), (-0.8, 0.8), (-0.8, 0.8), (-0.8, 0.8)),
             params={"a": 0.8}, structure=t3,
             desc="Lorentzian lightlike-parabolic hypersurface, offset rotation block"))

    # the explicit example with four distinct principal curvatures
    add(CatalogEntry(
        key="ex41", kind="hypersurface",
        description="explicit hypersurface with four distinct principal curvatures",
        conditions=(_INEQ_COND[2], "a != 0", "s, s+2a, s+2b bounded away from 0"),
        components=("-{a}*v^2 + {b}*u^2 + 0.5*s*(t^2+u^2-v^2) + psi(s)",
                    "v*(s+2*{a})", "s*t", "u*(s+2*{b})",
                    "-{a}*v^2 + {b}*u^2 + 0.5*s*(t^2+u^2-v^2) + psi(s) - s"),
        domain=((0.5, 2.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
        profile_names=("psi",), psi_inequality=2,
        params={"a": 1.0, "b": 2.0},
        structure=("all-distinct",),
        orientation=("0.5*(t^2+u^2-v^2) + 1 - dpsi(s)", "v", "t", "u",
                     "0.5*(t^2+u^2-v^2) - dpsi(s)"),
    ))

    # integral surfaces of the rotational distribution
    surf = [
        ("intsurf.i", ("0", "0", "t", "u", "0"), 0,
         ((-0.8, 0.8), (-0.8, 0.8)), {}, ("plane",),
         "nondegenerate spacelike 2-plane"),
        ("intsurf.ii", ("0", "{r}*cosh(t)", "{r}*sinh(t)*cos(u)", "{r}*sinh(t)*sin(u)", "0"), 0,
         ((0.3, 1.2), (-0.8, 0.8)), {"r": 2.0}, ("quadric", -1.0, "umbilic"),
         "hyperbolic surface in a Lorentzian 3-plane"),
        ("intsurf.iii", ("0", "0", "{r}*cos(t)", "{r}*sin(t)*cos(u)", "{r}*sin(t)*sin(u)"), 0,
         ((0.4, 1.2), (-0.8, 0.8)), {"r": 2.0}, ("quadric", 1.0, "umbilic"),
         "round sphere in a Euclidean 3-plane"),
        ("intsurf.iv", ("{A}*t^2 + {A}*u^2", "0", "t", "u", "{A}*t^2 + {A}*u^2"), 0,
         ((-0.8, 0.8), (-0.8, 0.8)), {"A": 0.8}, ("parabolic", 1.0),
         "spacelike surface in a degenerate hyperplane"),
        ("intsurf.v", ("{r}*cosh(t)*sin(u)", "{r}*cosh(t)*cos(u)", "{r}*sinh(t)", "0", "0"), 1,
         ((-0.8, 0.8), (-0.8, 0.8)), {"r": 2.0}, ("quadric", -1.0, "umbilic"),
         "Lorentzian hyperbolic surface in an index-2 3-plane"),
        ("intsurf.vi", ("{A}*t^2 - {A}*u^2", "t", "u", "0", "{A}*t^2 - {A}*u^2"), 1,
         ((-0.8, 0.8), (-0.8, 0.8)), {"A": 0.8}, ("parabolic", -1.0),
         "Lorentzian surface in a degenerate hyperplane"),
        ("intsurf.vii", ("0", "{r}*sinh(t)", "{r}*cosh(t)*cos(u)", "{r}*cosh(t)*sin(u)", "0"), 1,
         ((-0.8, 0.8), (-0.8, 0.8)), {"r": 2.0}, ("quadric", 1.0, "umbilic"),
         "Lorentzian sphere in a Lorentzian 3-plane"),
        ("intsurf.viii", ("{r}*sinh(t)*cos(u)", "{r}*sinh(t)*sin(u)", "{r}*cosh(t)", "0", "0"), 2,
         ((0.3, 1.2), (-0.8, 0.8)), {"r": 2.0}, ("quadric", 1.0, "umbilic"),
         "index-2 sphere in an index-2 3-plane"),
    ]
    for key, comps, idx, dom, params, structure, desc in surf:
        add(CatalogEntry(key=key, kind="surface", description=desc, conditions=(),
                         components=comps, domain=dom, params=params,
                         expected_index=idx, structure=structure))

    # integral curves of the complementary line distribution
    curves = [
        ("intcurve.A", ("0", "0", "0", "v", "0"), 0, {}, ("line",),
         "straight line (vanishing curvature direction)"),
        ("intcurve.B", ("0", "0", "cos({R}*v)/{R}", "sin({R}*v)/{R}", "0"), 0,
         {"R": 2.0}, ("accel", 1.0), "circle in a spacelike 2-plane"),
        ("intcurve.C", ("sinh({R}*v)/{R}", "0", "0", "0", "cosh({R}*v)/{R}"), 1,
         {"R": 2.0}, ("accel", 1.0), "hyperbola, timelike speed"),
        ("intcurve.D", ("cosh({R}*v)/{R}", "0", "0", "0", "sinh({R}*v)/{R}"), 0,
         {"R": 2.0}, ("accel", -1.0), "hyperbola, spacelike speed"),
        ("intcurve.E", ("{a}*v^2", "0", "v", "0", "{a}*v^2"), 0,
         {"a": 0.8}, ("lightlike-accel",), "parabola with lightlike acceleration"),
        ("intcurve.F", ("cos({R}*v)/{R}", "sin({R}*v)/{R}", "0", "0", "0"), 1,
         {"R": 2.0}, ("accel", -1.0), "circle in a timelike 2-plane"),
        ("intcurve.G", ("{a}*v^2", "v", "0", "0", "{a}*v^2"), 1,
         {"a": 0.8}, ("lightlike-accel",), "timelike parabola, lightlike acceleration"),
    ]
    for key, comps, idx, params, structure, desc in curves:
        conds = tuple(f"{k} != 0" for k in params if k == "a") + tuple(
            f"{k} > 0" for k in params if k == "R")
        add(CatalogEntry(key=key, kind="curve", description=desc, conditions=conds,
                         components=comps, domain=((-0.8, 0.8),), params=params,
                         expected_index=idx, structure=structure))

    # arbitrary-dimension extension (parameter count n, ambient n+1)
    add(CatalogEntry(
        key="rem42", kind="hypersurface",
        description="arbitrary-dimension extension of the four-curvature example",
        conditions=(_INEQ_COND[2], "offsets s+2*a_i bounded away from 0"),
        components=(), domain=(), profile_names=("psi",), psi_inequality=2,
        params={"n": 4, "a": (1.0, 2.0, 3.0)},
        structure=("all-distinct",),
    ))

    return reg


CATALOG = _build_registry()
_SAMPLES = 25
_PAIR_TOL = 1e-8
_STRICT_MARGIN = 1e-6


def list_entries(family: str | None = None):
    rows = []
    for key, e in CATALOG.items():
        if family and not key.startswith(family):
            continue
        rows.append({
            "key": key,
            "kind": e.kind,
            "description": e.description,
            "conditions": list(e.conditions),
            "parameters": {k: v for k, v in e.params.items()},
        })
    return rows


def var_names(kind: str, nparams: int) -> tuple:
    """Parameter names of a chart: (t, u) on an integral surface, (v,) on an
    integral curve, else ``expr.var_names_for``."""
    if kind == "surface":
        return ("t", "u")
    if kind == "curve":
        return ("v",)
    return var_names_for(nparams)


def _profile_bank(entry: CatalogEntry, spec: FamilySpec, domain):
    """Build the profile bank for an entry, honoring explicit overrides."""
    req = dict(spec.profiles)
    params = {**entry.params, **spec.parameters}
    bank = {}
    if not entry.profile_names:
        return bank, params
    s_lo, s_hi = domain[0]
    pad = 0.05 * (s_hi - s_lo)
    s_range = (s_lo - pad, s_hi + pad)

    if entry.pair_kind:
        names = entry.profile_names
        # the literal value "auto-<kind>" asks for the constructed pair
        explicit = [n for n in names
                    if n in req and not str(req[n]).startswith("auto")]
        if len(explicit) == 2:
            bank[names[0]] = ExprProfile(parse(str(req[names[0]]), ("s",)))
            bank[names[1]] = ExprProfile(parse(str(req[names[1]]), ("s",)))
        else:
            theta = req.get("theta", _TH_DEFAULT)
            phi0 = float(req.get("phi0", 1.2))
            psi0 = float(req.get("psi0", 0.3 if names[1] == "psi" else 0.7))
            phi, psi = make_profile_pair(entry.pair_kind, theta, s_range,
                                         phi0=phi0, psi0=psi0)
            bank[names[0]] = phi
            bank[names[1]] = psi
        worst = max(
            constraint_residual(entry.pair_kind, bank[names[0]], bank[names[1]], s)
            for s in np.linspace(s_lo, s_hi, _SAMPLES)
        )
        if worst > _PAIR_TOL:
            raise ConstraintError(_PAIR_COND[entry.pair_kind], f"residual {worst:.2e}")
    elif "psi" in entry.profile_names:
        if req.get("solve_psi") or ("psi" not in req and entry.key in ("ex41", "rem42")):
            c = float(req.get("c", 1.0))
            if entry.key == "rem42":
                offsets = tuple(2.0 * float(ai) for ai in params["a"])
                bank["psi"] = solve_psi_offsets(offsets, c, s_range)
            else:
                bank["psi"] = solve_psi(float(params["a"]), float(params["b"]), c, s_range)
        elif "psi" in req:
            if isinstance(req["psi"], str):
                bank["psi"] = ExprProfile(parse(req["psi"], ("s",)))
            else:
                bank["psi"] = req["psi"]  # a prebuilt profile entry
        else:
            default = "s^2" if entry.psi_inequality in (1, 2) else "-s^2"
            bank["psi"] = ExprProfile(parse(default, ("s",)))
        if entry.psi_inequality:
            sign = entry.psi_inequality
            for s in np.linspace(s_lo, s_hi, _SAMPLES):
                dpsi = bank["psi"].derivs(s, 1)[1]
                val = 1.0 - 2.0 * dpsi if sign in (1, 2) else 1.0 + 2.0 * dpsi
                if val > -_STRICT_MARGIN:
                    raise ConstraintError(_INEQ_COND[1 if sign == 2 else sign],
                                          f"value {val:.2e} at s={s:.3f}")
        bank["dpsi"] = DerivativeProfile(bank["psi"])
    return bank, params


def build(spec: FamilySpec) -> ImmersionChart:
    """Instantiate a catalog chart, checking every displayed side condition."""
    if spec.key == "rem42" or spec.family == "rem42":
        params = {**CATALOG["rem42"].params, **spec.parameters}
        return build_remark42(int(params["n"]), params["a"],
                              profiles=spec.profiles, domain=spec.domain)
    entry = CATALOG.get(spec.key)
    if entry is None:
        raise ContractViolation(f"unknown catalog key {spec.key!r}")
    domain = spec.domain or entry.domain
    bank, params = _profile_bank(entry, spec, domain)
    for name, val in params.items():
        if name == "a" and abs(float(val)) < _STRICT_MARGIN and f"{name} != 0" in entry.conditions:
            raise ConstraintError("a != 0")
        if name == "R" and float(val) <= 0:
            raise ConstraintError("R > 0")
    if entry.key == "ex41":
        a, b = float(params["a"]), float(params["b"])
        s_lo, s_hi = domain[0]
        for root in (0.0, -2.0 * a, -2.0 * b):
            if s_lo - 1e-9 <= root <= s_hi + 1e-9:
                raise DomainError(
                    f"s range [{s_lo:g}, {s_hi:g}] touches the singular value s={root:g}"
                )
    fmt = {k: repr(float(v)) for k, v in params.items() if not isinstance(v, (tuple, list))}
    names = var_names(entry.kind, len(domain))
    comps = tuple(parse(c.format(**fmt), names) for c in entry.components)
    orient = None
    if entry.orientation:
        orient = tuple(parse(c.format(**fmt), names) for c in entry.orientation)
    chart = ImmersionChart(
        components=comps, domain=tuple(tuple(map(float, d)) for d in domain),
        profile_bank=bank, signature=Signature(len(comps), 2),
        expected_index=entry.expected_index, name=spec.key, orientation_ref=orient,
    )
    _validate_center(chart)
    return chart


def build_remark42(n: int, a, profiles: dict | None = None,
                   domain: tuple | None = None) -> ImmersionChart:
    """Extension chart with n parameters in (n+1)-space, offsets 2*a_i.

    With all offsets distinct (and a generic torsion profile) the chart has n
    distinct principal curvatures; repeated offsets collapse the matching
    pair exactly.
    """
    if n < 4:
        raise ContractViolation("the extension requires n >= 4")
    a = tuple(float(x) for x in a)
    if len(a) != n - 1:
        raise ContractViolation(f"need {n - 1} offset constants, got {len(a)}")
    domain = domain or ((0.6, 1.4),) + ((-0.5, 0.5),) * (n - 1)
    req = dict(profiles or {})
    s_lo, s_hi = domain[0]
    pad = 0.05 * (s_hi - s_lo)
    if "psi" in req and not req.get("solve_psi"):
        bank = {"psi": ExprProfile(parse(str(req["psi"]), ("s",)))
                if isinstance(req["psi"], str) else req["psi"]}
    else:
        c = float(req.get("c", 1.0))
        bank = {"psi": solve_psi_offsets(tuple(2.0 * ai for ai in a), c,
                                         (s_lo - pad, s_hi + pad))}
    for s in np.linspace(s_lo, s_hi, _SAMPLES):
        if 2.0 * bank["psi"].derivs(s, 1)[1] - 1.0 < _STRICT_MARGIN:
            raise ConstraintError(_INEQ_COND[2], f"at s={s:.3f}")
    bank["dpsi"] = DerivativeProfile(bank["psi"])

    names = var_names_for(n)
    ts = names[1:]
    quad = " + ".join(f"{ai!r}*{t}^2" for ai, t in zip(a[1:], ts[1:]))
    quad = (f"-{a[0]!r}*{ts[0]}^2" + (f" + {quad}" if quad else ""))
    square_sum = " + ".join(f"{t}^2" for t in ts[1:])
    lead = f"{quad} + 0.5*s*({square_sum} - {ts[0]}^2) + psi(s)"
    comps = [lead]
    comps += [f"{t}*(s + {2.0 * ai!r})" for t, ai in zip(ts, a)]
    comps.append(lead + " - s")
    orient = [f"0.5*({square_sum} - {ts[0]}^2) + 1 - dpsi(s)"]
    orient += list(ts)
    orient.append(f"0.5*({square_sum} - {ts[0]}^2) - dpsi(s)")
    chart = ImmersionChart(
        components=tuple(parse(c, names) for c in comps),
        domain=tuple(tuple(map(float, d)) for d in domain),
        profile_bank=bank, signature=Signature(n + 1, 2), expected_index=2,
        name="rem42", orientation_ref=tuple(parse(c, names) for c in orient),
    )
    _validate_center(chart)
    return chart


def _validate_center(chart: ImmersionChart):
    center = chart.center()
    if chart.codim == 1:
        packet(chart, center)
    else:
        submanifold_packet(chart, center)


# -- structural verification ----------------------------------------------


@dataclass
class StructureReport:
    key: str
    n_points: int
    patterns: list
    case_labels: list
    family_ok: bool
    index_ok: bool
    beltrami_max: float
    gauss_max: float
    codazzi_max: float
    curvature_min: float
    curvature_max: float
    notes: list


def _zero_cluster(reals, tol_abs):
    for lam, alg, geo in reals:
        if abs(lam) <= tol_abs:
            return alg
    return 0


def pattern_matches(tag: str, spec) -> tuple:
    """Does a resolved spectrum match a family's expected operator pattern?"""
    if spec.case_label == "unresolved":
        return False, "unresolved spectrum"
    scale = 1.0 + max((abs(float(v)) for v, _, _ in spec.real_eigenvalues), default=0.0)
    ztol = 1e-7 * scale
    z = _zero_cluster(spec.real_eigenvalues, ztol)
    algs = sorted(alg for _, alg, _ in spec.real_eigenvalues)
    if tag == "zero>=2":
        return z >= 2, f"extra flat direction (zero multiplicity {z})" if z > 2 else ""
    if tag == "simple-zero+double":
        ok = z == 1 and 2 in [alg for lam, alg, _ in spec.real_eigenvalues
                              if abs(lam) > ztol]
        return ok, ""
    if tag == "1+2+1-nonzero":
        return z == 0 and algs == [1, 1, 2], ""
    if tag == "all-distinct":
        return z == 0 and all(a == 1 for a in algs) and not spec.complex_pairs, ""
    return True, ""


def _all_distinct(curvatures) -> bool:
    """Present and pairwise more than CLUSTER_TOL (1 + max|k|) apart."""
    k = np.sort(curvatures or ())
    return k.size > 0 and bool(np.all(np.diff(k) > CLUSTER_TOL * (1.0 + np.max(np.abs(k)))))


def structure_verdict(entry: CatalogEntry | None, rows) -> tuple:
    """(ok, spectral, notes): the family-structure verdict on sweep rows.

    ``spectral`` is the report block: point counts per case label and per
    pattern, and the curvature range.  A point error fails the verdict; with
    no expected pattern (inline charts) nothing else is checked.  Rows of
    4-parameter charts are matched by ``pattern_matches``; other rows carry
    no spectral classification, and ``all-distinct`` reads their curvatures.
    """
    tag = entry.structure[0] if entry and entry.structure else ""
    notes = [f"{r.error} (at {tuple(round(x, 3) for x in r.point)})" for r in rows if r.error]
    ok = not notes
    good = [r for r in rows if not r.error]
    for r in good if tag else ():
        if r.label == "unresolved":
            row_ok, note = False, f"unresolved spectrum at {tuple(round(x, 3) for x in r.point)}"
        elif r.spectrum is not None:
            row_ok, note = pattern_matches(tag, r.spectrum)
        else:
            row_ok, note = tag == "all-distinct" and _all_distinct(r.curvatures), ""
        if note:
            notes.append(note)
        ok = ok and row_ok
    curv = [r.curvatures for r in rows if r.curvatures]
    spectral = {
        "labels": Counter(r.label for r in good),
        "patterns": Counter(r.pattern for r in good),
        "curvature_min": min(min(c) for c in curv) if curv else None,
        "curvature_max": max(max(c) for c in curv) if curv else None,
    }
    return ok, spectral, notes


def verify_structure(spec_or_key, nodes_per_axis: int = 5,
                     chart: ImmersionChart | None = None) -> StructureReport:
    """Sample the domain interior and check the family's expected pattern.

    A hypersurface is judged by ``structure_verdict`` on ``sweep`` rows, as
    ``biconserve verify`` judges the same grid.  A point error fails
    ``family_ok`` and is listed in ``notes``; a wrong metric index is such
    an error and also fails ``index_ok``.
    """
    if isinstance(spec_or_key, FamilySpec):
        spec = spec_or_key
    else:
        family, _, case = str(spec_or_key).partition(".")
        spec = FamilySpec(family, case)
    entry = CATALOG.get(spec.key)
    if entry is None:
        raise ContractViolation(f"unknown catalog key {spec.key!r}")
    if chart is None:
        chart = build(spec)
    grid = interior_grid(chart.domain, nodes_per_axis)
    points = grid_points([(lo, hi) for lo, hi, _ in grid], nodes_per_axis)
    if entry.kind != "hypersurface":
        return _verify_lowdim(spec.key, entry, chart, points)

    rows = sweep(chart, points, ("beltrami", "gauss", "codazzi", "structure"))
    ok, spectral, notes = structure_verdict(entry, rows)
    worst = {name: max((r.values[name] for r in rows if name in r.values), default=0.0)
             for name in ("beltrami", "gauss", "codazzi")}
    kmin, kmax = spectral["curvature_min"], spectral["curvature_max"]
    return StructureReport(
        key=spec.key, n_points=len(points), patterns=sorted(spectral["patterns"]),
        case_labels=sorted(spectral["labels"]), family_ok=ok,
        index_ok=not any(r.error.startswith(f"{UnexpectedIndex.__name__}:") for r in rows),
        beltrami_max=worst["beltrami"], gauss_max=worst["gauss"], codazzi_max=worst["codazzi"],
        curvature_min=0.0 if kmin is None else kmin,
        curvature_max=0.0 if kmax is None else kmax, notes=notes,
    )


def _verify_lowdim(key, entry, chart, points):
    """Residual maxima and family predicates; a wrong index raises."""
    family_ok = True
    notes = []
    bel = gau = cod = 0.0
    eps = chart.signature.weights
    for p in points:
        spk = submanifold_packet(chart, p)
        bel = max(bel, beltrami_residual(chart, p, spk))
        g, c = gauss_codazzi_residual(chart, p, spk)
        gau, cod = max(gau, g), max(cod, c)
        tag = entry.structure[0] if entry.structure else ""
        if tag == "plane":
            family_ok = family_ok and float(np.max(np.abs(spk.h))) < 1e-9
        elif tag == "quadric":
            sign = entry.structure[1]
            r = entry.params.get("r", 1.0)
            y = chart.value(p)
            val = float(np.dot(eps * y, y))
            family_ok = family_ok and abs(val - sign * r * r) < 1e-8 * (1 + r * r)
            if len(entry.structure) > 2 and entry.structure[2] == "umbilic":
                Hv = spk.mean_curvature
                dev = spk.h - np.einsum("ij,a->ija", spk.G, Hv)
                family_ok = family_ok and float(np.max(np.abs(dev))) < 1e-8
        elif tag == "parabolic":
            ht = spk.h[0, 0]
            family_ok = family_ok and float(np.dot(eps * ht, ht)) < 1e-9 \
                and float(np.max(np.abs(spk.h[0, 1]))) < 1e-9
        elif tag == "line":
            family_ok = family_ok and float(np.max(np.abs(spk.h))) < 1e-10
        elif tag == "accel":
            sign = entry.structure[1]
            R = entry.params["R"]
            acc = spk.h[0, 0]
            val = float(np.dot(eps * acc, acc))
            family_ok = family_ok and abs(val - sign * R * R) < 1e-8 * (1 + R * R)
        elif tag == "lightlike-accel":
            acc = spk.h[0, 0]
            family_ok = family_ok and abs(float(np.dot(eps * acc, acc))) < 1e-9 \
                and float(np.linalg.norm(acc)) > 1e-6
        # unit-speed claims for the curves
        if entry.kind == "curve":
            speed = float(spk.G[0, 0])
            expected = -1.0 if entry.expected_index == 1 else 1.0
            if abs(speed - expected) > 1e-9:
                family_ok = False
                notes.append(f"speed {speed:+.6f} != {expected:+g} at {tuple(p)}")
    return StructureReport(
        key=key, n_points=len(points), patterns=[], case_labels=[],
        family_ok=family_ok, index_ok=True, beltrami_max=bel,
        gauss_max=gau, codazzi_max=cod, curvature_min=0.0, curvature_max=0.0,
        notes=notes,
    )


def all_keys():
    return list(CATALOG.keys())
