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

A spec's inputs each have one reader: ``entry_for`` takes the parameters
the entry declares, ``_profile_bank`` takes the profile keys at the point
where the build reads them, and either refuses a key left over, naming it.

``build`` gives a chart its family's expected structure for the sweep to
judge, a quadric's <x, x> (sign r r) or a curve's <a, a> (sign R R) resolved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Callable

import numpy as np

from .ambient import Signature
from .errors import ConstraintError, ContractViolation, DomainError
from .expr import parse, var_names_for
from .immersion import ImmersionChart, _any_packet
from .profiles import (DerivativeProfile, ExprProfile, PsiSolution, constraint_residual,
                       make_profile_pair)
from .thresholds import OFFSET_SLACK, PAIR_TOL, STRICT_MARGIN


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
    offsets: Callable | None = None  # the torsion equation's offsets, from the parameters


_TH_DEFAULT = "0.3*s + 0.2"
_PAIR_COND = {
    "sum1": "phi'^2 + psi'^2 = 1",
    "diffP": "phi'^2 - psi'^2 = 1",
    "diffM": "phi'^2 - psi'^2 = -1",
}
_INEQ_COND = {1: "1 - 2*psi' < 0", -1: "1 + 2*psi' < 0", 2: "2*psi' - 1 > 0"}
# each inequality's expression as a function of psi', and the sign it must keep
_INEQ_VALUE = {1: (lambda d: 1.0 - 2.0 * d, -1.0), -1: (lambda d: 1.0 + 2.0 * d, -1.0),
               2: (lambda d: 2.0 * d - 1.0, 1.0)}


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
        offsets=lambda p: (0.0, 2.0 * float(p["a"]), 2.0 * float(p["b"])),
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

    # arbitrary-dimension extension (parameter count n, ambient n+1); its
    # components and domain are built from n and a by entry_for
    add(CatalogEntry(
        key="rem42", kind="hypersurface",
        description="arbitrary-dimension extension of the four-curvature example",
        conditions=(_INEQ_COND[2], "offsets s+2*a_i bounded away from 0"),
        components=(), domain=(), profile_names=("psi",), psi_inequality=2,
        params={"n": 4, "a": (1.0, 2.0, 3.0)},
        structure=("all-distinct",),
        offsets=lambda p: tuple(2.0 * float(ai) for ai in p["a"]),
    ))

    return reg


CATALOG = _build_registry()
_SAMPLES = 25
# rem42's largest n: its chart builds JetSpace(n), whose order-4 product table
# took 0.04, 0.11, 0.45 and 1.76 s at n = 7, 8, 9 and 10 on a 2-core host
REM42_MAX_N = 10


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


def _remark42(entry: CatalogEntry, given: dict) -> CatalogEntry:
    """The extension's entry for n parameters in (n+1)-space, offsets 2*a_i,
    from the ``given`` parameters (a defaults to 1, ..., n - 1).

    With all offsets distinct (and a generic torsion profile) the chart has n
    distinct principal curvatures; repeated offsets collapse the matching
    pair exactly.
    """
    n = int(given.get("n", entry.params["n"]))
    if n < 4:
        raise ContractViolation("the extension requires n >= 4")
    if n > REM42_MAX_N:
        raise ContractViolation(f"the extension takes n <= {REM42_MAX_N}, got n = {n}")
    a = tuple(float(x) for x in given.get("a", range(1, n)))
    if len(a) != n - 1:
        raise ContractViolation(f"need {n - 1} offset constants, got {len(a)}")
    ts = var_names_for(n)[1:]
    quad = " + ".join(f"{ai!r}*{t}^2" for ai, t in zip(a[1:], ts[1:]))
    quad = (f"-{a[0]!r}*{ts[0]}^2" + (f" + {quad}" if quad else ""))
    square_sum = " + ".join(f"{t}^2" for t in ts[1:])
    lead = f"{quad} + 0.5*s*({square_sum} - {ts[0]}^2) + psi(s)"
    comps = (lead, *(f"{t}*(s + {2.0 * ai!r})" for t, ai in zip(ts, a)), lead + " - s")
    orient = (f"0.5*({square_sum} - {ts[0]}^2) + 1 - dpsi(s)", *ts,
              f"0.5*({square_sum} - {ts[0]}^2) - dpsi(s)")
    return replace(entry, components=comps, domain=((0.6, 1.4),) + ((-0.5, 0.5),) * (n - 1),
                   orientation=orient, params={"n": n, "a": a})


def refuse_unread(parameters, profiles, reader: str):
    """ContractViolation naming the first key left in ``parameters``, else in
    ``profiles``, once ``reader``'s build has taken every key it reads."""
    for name in parameters:
        raise ContractViolation(f"parameter {name!r} is not read by {reader}")
    for key in profiles:
        raise ContractViolation(f"--{key.replace('_', '-')} is not read by {reader}")


def _number(val) -> bool:
    """A real number, not a bool (which Python counts as one)."""
    return isinstance(val, Real) and not isinstance(val, bool)


def _float(val) -> float:
    """float(val), an integer past the float range read as an infinity (so
    that it is refused as not finite)."""
    try:
        return float(val)
    except OverflowError:
        return math.inf if val > 0 else -math.inf


def _profile_number(req: dict, key: str, default: float) -> float:
    """The number ``req`` gives for ``key`` (taken from it), else ``default``;
    ContractViolation if it is not finite."""
    val = _float(req.pop(key, default))
    if not math.isfinite(val):
        raise ContractViolation(f"--{key} takes a finite number, got {val!r}")
    return val


def entry_for(spec: FamilySpec) -> CatalogEntry:
    """The catalog entry a spec builds, with the spec's parameters checked:
    each is one the entry declares, of its default's type (a number, an
    integral number where the default is an int, or a sequence of numbers;
    never a bool), every number finite, and the entry's ``a != 0`` and
    ``R > 0`` hold.  For rem42 the entry's components, reference normal and
    default domain are built from n and a (by default 1, ..., n - 1)."""
    entry = CATALOG.get(spec.key)
    if entry is None:
        raise ContractViolation(f"unknown catalog key {spec.key!r}")
    refuse_unread([k for k in spec.parameters if k not in entry.params], (), spec.key)
    for name, val in spec.parameters.items():
        default = entry.params[name]
        if isinstance(default, tuple):
            ok = isinstance(val, (tuple, list)) and all(map(_number, val))
            want = "a sequence of numbers"
        elif isinstance(default, int):
            ok = _number(val) and (isinstance(val, int) or _float(val).is_integer())
            want = "an integer"
        else:
            ok, want = _number(val), "a number"
        if not ok:
            raise ContractViolation(f"parameter {name!r} takes {want}, got {val!r}")
        vals = val if isinstance(default, tuple) else (val,)
        if not all(math.isfinite(_float(v)) for v in vals):
            want = "finite numbers" if isinstance(default, tuple) else "a finite number"
            raise ContractViolation(f"parameter {name!r} takes {want}, got {val!r}")
    params = {**entry.params, **spec.parameters}
    if "a != 0" in entry.conditions and abs(float(params["a"])) < STRICT_MARGIN:
        raise ConstraintError("a != 0")
    if "R > 0" in entry.conditions and float(params["R"]) <= 0:
        raise ConstraintError("R > 0")
    if entry.key == "rem42":
        return _remark42(entry, spec.parameters)
    return replace(entry, params=params)


def _profile_bank(entry: CatalogEntry, spec: FamilySpec, domain) -> dict:
    """The entry's profiles.  Each key of ``spec.profiles`` is taken where it
    is read, and a key left over is refused before any profile is built: a
    pair family reads its two profile names, then nothing else when both
    are expressions, else theta, phi0 and psi0 for the constructed pair (a
    name given alone is read only as "auto-<kind>"); a psi family reads
    solve_psi and the solve's c where it has a torsion equation, and psi
    unless it solves that equation; an entry without profiles reads none."""
    req = dict(spec.profiles)
    names = entry.profile_names
    if not names:
        refuse_unread((), req, spec.key)
        return {}
    s_lo, s_hi = domain[0]
    pad = 0.05 * (s_hi - s_lo)
    s_range = (s_lo - pad, s_hi + pad)
    samples = np.linspace(s_lo, s_hi, _SAMPLES)

    if entry.pair_kind:
        given = {n: req.pop(n) for n in names if n in req}
        explicit = [n for n in given if not str(given[n]).startswith("auto")]
        if len(explicit) == 1:
            other = names[1 - names.index(explicit[0])]
            raise ContractViolation(f"--{explicit[0]} is read only together with --{other}")
        if explicit:
            refuse_unread((), req, spec.key)
            bank = {n: ExprProfile(parse(str(given[n]), ("s",))) for n in names}
        else:
            theta = req.pop("theta", _TH_DEFAULT)
            phi0 = _profile_number(req, "phi0", 1.2)
            psi0 = _profile_number(req, "psi0", 0.3 if names[1] == "psi" else 0.7)
            refuse_unread((), req, spec.key)
            bank = dict(zip(names, make_profile_pair(entry.pair_kind, theta, s_range,
                                                     phi0=phi0, psi0=psi0)))
        worst = max(constraint_residual(entry.pair_kind, bank[names[0]], bank[names[1]],
                                        samples).tolist())
        if worst > PAIR_TOL:
            raise ConstraintError(_PAIR_COND[entry.pair_kind], f"residual {worst:.2e}")
        for name in [n for n in names if n != "psi"]:  # a radius keeps one sign, off 0
            val = bank[name].derivs(samples, 0)[0]
            bad = np.flatnonzero(np.sign(val[0]) * val < STRICT_MARGIN)
            if len(bad):
                raise ConstraintError(f"{name} != 0 with one sign",
                                      f"value {val[bad[0]]:.2e} at s={samples[bad[0]]:.3f}")
        return bank
    if entry.offsets and (req.pop("solve_psi", False) or "psi" not in req):
        c = _profile_number(req, "c", 1.0)
        refuse_unread((), req, spec.key)
        bank = {"psi": PsiSolution.build(entry.offsets(entry.params), c, s_range)}
    else:
        psi = req.pop("psi", "s^2" if entry.psi_inequality > 0 else "-s^2")
        refuse_unread((), req, spec.key)
        # an expression, or a prebuilt profile entry
        bank = {"psi": ExprProfile(parse(psi, ("s",))) if isinstance(psi, str) else psi}
    value, sign = _INEQ_VALUE[entry.psi_inequality]
    val = value(bank["psi"].derivs(samples, 1)[1])
    bad = np.flatnonzero(sign * val < STRICT_MARGIN)
    if len(bad):
        raise ConstraintError(_INEQ_COND[entry.psi_inequality],
                              f"value {val[bad[0]]:.2e} at s={samples[bad[0]]:.3f}")
    bank["dpsi"] = DerivativeProfile(bank["psi"])
    return bank


def build(spec: FamilySpec) -> ImmersionChart:
    """Instantiate a catalog chart, checking every displayed side condition."""
    entry = entry_for(spec)
    domain = spec.domain or entry.domain
    if len(domain) != len(entry.domain):
        raise ContractViolation(f"domain has {len(domain)} axes, chart has {len(entry.domain)}")
    s_lo, s_hi = domain[0]
    for o in entry.offsets(entry.params) if entry.offsets else ():
        root = 0.0 - o  # not -o: the root s = 0 prints as 0, not -0
        if s_lo - OFFSET_SLACK <= root <= s_hi + OFFSET_SLACK:
            raise DomainError(f"s range [{s_lo:g}, {s_hi:g}] touches the singular value s={root:g}")
    bank = _profile_bank(entry, spec, domain)
    fmt = {k: repr(float(v)) for k, v in entry.params.items()
           if not isinstance(v, (tuple, list))}
    names = var_names(entry.kind, len(entry.domain))
    comps = tuple(parse(c.format(**fmt), names) for c in entry.components)
    orient = None
    if entry.orientation:
        orient = tuple(parse(c.format(**fmt), names) for c in entry.orientation)
    structure = entry.structure
    if structure[:1] in (("quadric",), ("accel",)):  # the expected <x, x> or <a, a>
        r = entry.params["r" if structure[0] == "quadric" else "R"]
        structure = (structure[0], structure[1] * r * r, *structure[2:])
    chart = ImmersionChart(
        components=comps, domain=tuple(tuple(map(float, d)) for d in domain),
        profile_bank=bank, signature=Signature(len(comps), 2),
        expected_index=entry.expected_index, name=spec.key, orientation_ref=orient,
        structure=structure,
    )
    _any_packet(chart, chart.center(), None)  # refuses a chart its centre cannot carry
    return chart


def build_remark42(n: int, a, profiles: dict | None = None,
                   domain: tuple | None = None) -> ImmersionChart:
    """``build`` of the rem42 spec with these n, offsets a, profiles and domain."""
    return build(FamilySpec("rem42", parameters={"n": n, "a": a}, profiles=dict(profiles or {}),
                            domain=domain))


def all_keys():
    return list(CATALOG.keys())
