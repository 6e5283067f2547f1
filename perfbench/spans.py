"""In-memory span tracer that instruments biconserve from outside.

The tracer replaces public functions of the ``biconserve`` modules with
wrappers that record one span per call: name, start, end and the span that
was open when the call began (its parent).  Consumer modules bind these
functions with ``from .immersion import packet`` and similar imports, so a
function is replaced under every name, in every ``biconserve`` module, that
is bound to the original object.  Jet construction and jet products are
far too frequent for spans and are only counted.

Spans are kept in flat arrays (24 bytes each) until the run ends, then
written out in one ``.npz`` file.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function): one span per call, named "<module>.<function>"
FUNCTIONS = (
    ("expr", "jet_eval"),
    ("expr", "eval_value"),
    ("expr", "fd_partial"),
    ("immersion", "packet"),
    ("immersion", "packet_fd"),
    ("immersion", "submanifold_packet"),
    ("immersion", "beltrami_residual"),
    ("immersion", "gauss_codazzi_residual"),
    ("immersion", "biconservative_residual"),
    ("immersion", "principal_direction_check"),
    ("spectral", "eigen_structure"),
    ("catalog", "build"),
    ("sweep", "sweep"),
    ("sweep", "summarize"),
    ("cli", "run_verify"),
)
# (module, class, method, span name)
METHODS = (
    ("profiles", "QuadratureProfile", "build", "profiles.QuadratureProfile.build"),
    ("profiles", "PsiSolution", "build", "profiles.PsiSolution.build"),
    ("profiles", "ExprProfile", "derivs", "profiles.derivs"),
    ("profiles", "QuadratureProfile", "derivs", "profiles.derivs"),
    ("profiles", "PsiSolution", "derivs", "profiles.derivs"),
    ("profiles", "DerivativeProfile", "derivs", "profiles.derivs"),
)
# (module, class, method, counter name): counted, no span
COUNTED = (
    ("jets.jet", "Jet", "__init__", "jets.Jet.new"),
)
# (module, function, counter name): counted, no span.  Every truncated jet
# product goes through kernel.mul_into, whether it comes from Jet.__mul__ or
# from Jet.compose (reciprocal, division, sin, exp, powr); scaling a jet by a
# number does not.
COUNTED_FUNCTIONS = (
    ("jets.kernel", "mul_into", "jets.kernel.mul_into"),
)


def _module(name):
    return sys.modules[f"biconserve.{name}"]


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, list] = {}
        self.unresolved = [0]  # eigen_structure results labelled "unresolved"
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of the benchmark's own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing ----------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "biconserve" and not modname.startswith("biconserve."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _set_class_attr(self, cls, attr, value):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    def install(self):
        for modname, fname in FUNCTIONS:
            original = getattr(_module(modname), fname)
            wrapped = self.wrap(f"{modname}.{fname}", original)
            if fname == "eigen_structure":
                wrapped = self._flag_unresolved(wrapped)
            self._replace_everywhere(original, wrapped)
        for modname, clsname, meth, name in METHODS:
            cls = getattr(_module(modname), clsname)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                value = staticmethod(self.wrap(name, getattr(cls, meth)))
            else:
                value = self.wrap(name, raw)
            self._set_class_attr(cls, meth, value)
        for modname, clsname, meth, name in COUNTED:
            cls = getattr(_module(modname), clsname)
            self._set_class_attr(cls, meth, self._counting(name, cls.__dict__[meth]))
        for modname, fname, name in COUNTED_FUNCTIONS:
            original = getattr(_module(modname), fname)
            self._replace_everywhere(original, self._counting(name, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _counting(self, name, fn):
        box = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            box[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _flag_unresolved(self, fn):
        box = self.unresolved

        @functools.wraps(fn)
        def flagged(*args, **kwargs):
            spec = fn(*args, **kwargs)
            if spec.case_label == "unresolved":
                box[0] += 1
            return spec

        return flagged

    # -- reading -------------------------------------------------------

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return name_id, parent, start, end

    def stats(self, t_lo: float, t_hi: float) -> dict:
        """Per span name, over spans inside [t_lo, t_hi]: calls, total and self seconds."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        inside = (start >= t_lo) & (end <= t_hi)
        k = len(self.names)
        calls = np.bincount(name_id[inside], minlength=k)
        total = np.bincount(name_id[inside], weights=dur[inside], minlength=k)
        self_s = np.bincount(name_id[inside], weights=own[inside], minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def write(self, path, t0: float):
        """Write every span, with times in seconds from ``t0``, and the counts."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id.astype(np.int32),
                            parent=parent.astype(np.int32), start=start - t0, end=end - t0,
                            count_names=np.array(list(self.counts)),
                            counts=np.array([box[0] for box in self.counts.values()]))
