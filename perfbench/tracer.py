"""Out-of-tree tracing of the ``semitoric`` layers.

``Tracer.install`` wraps, from outside, every public function and public
method of every ``semitoric`` module in a span recorder, plus ``Cone.__init__``.
The scalar kernels (``ExactScalar`` construction, ``+`` and ``*`` including
the reflected forms, and ``Vector.dot``) and the private
``_dual_description`` get call counters only.  A function imported into
another module under the same name (``from .lattice import
cone_intersection``) is replaced in every module that binds it.

Spans (name, start, end, parent, job) are kept in flat arrays and written
once, by ``dump``.  ``metrics`` turns them into the per-layer figures.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("cli", "formats", "quadfield", "cusp", "fans", "connection", "lattice",
          "monodromy", "series")
SCALAR_OPS = ("__init__", "__add__", "__radd__", "__mul__", "__rmul__")
# Methods that only count calls: class -> method -> counter.
COUNTERS = {
    "ExactScalar": {op: "lattice.scalar_ops" for op in SCALAR_OPS},
    "Vector": {"dot": "lattice.vector_dot.calls"},
}

# Kernel groups inside lattice; a group's time is the time under its
# outermost spans (lattice kernels call nothing outside lattice).
GROUPS = {
    "lattice.intersection": ("lattice:cone_intersection", "lattice:cone_from_inequalities"),
    "lattice.faces": ("lattice:faces",),
    "lattice.rref": ("lattice:mat_rref", "lattice:kernel_basis", "lattice:mat_inverse",
                     "lattice:solve_linear"),
    "lattice.normal_forms": ("lattice:hermite_normal_form", "lattice:smith_normal_form",
                             "lattice:integer_kernel", "lattice:complete_to_basis"),
}

# Every name a per-layer metric reads.  One that no longer exists is
# reported in ``missing`` instead of failing the run.
NAMED = sorted({
    "cli:main", "quadfield:fundamental_unit", "cusp:hull_vertices",
    "lattice:Cone.__init__", "lattice:Cone.dual_description", "lattice:_dual_description",
    "lattice:IntMatrix.inverse_unimodular", "lattice:Vector.dot",
    "monodromy:unipotent_log", "monodromy:weight_spaces",
    "series:effectivity_check", "series:reframe", "series:Framing.coordinates",
    *(f"lattice:ExactScalar.{op}" for op in SCALAR_OPS),
    *(name for names in GROUPS.values() for name in names),
})


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list = []
        self._ids: dict = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.jobs = array("l")
        self.stack = [-1]
        self.counts: dict = {}
        self.installed: set = set()
        self.missing: list = []
        self.bound_error = None

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def counter(self, key):
        return self.counts.setdefault(key, [0])

    def span(self, name, fn, on_return=None):
        nid = self._name_id(name)
        starts, ends, names, parents, jobs, stack = (
            self.start, self.end, self.name, self.parent, self.jobs, self.stack)
        on_error = self._bound_exit if name.startswith("cusp:") else None
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_error is not None:
                    on_error(exc, idx)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        functools.update_wrapper(wrapper, fn)
        self.installed.add(name)
        return wrapper

    def counting(self, key, name, fn):
        cell = self.counter(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        functools.update_wrapper(wrapper, fn)
        self.installed.add(name)
        return wrapper

    def _bound_exit(self, exc, idx):
        parent = self.parent[idx]
        outermost = parent < 0 or not self.names[self.name[parent]].startswith("cusp:")
        if outermost and self.bound_error is not None and isinstance(exc, self.bound_error):
            self.counter("cusp.bound_exits")[0] += 1

    # -- installation ----------------------------------------------------------------

    def install(self):
        """Wrap the already imported ``semitoric`` modules in place."""
        modules = {layer: sys.modules.get(f"semitoric.{layer}") for layer in LAYERS}
        modules = {layer: m for layer, m in modules.items() if m is not None}
        errors = sys.modules.get("semitoric.errors")
        self.bound_error = getattr(errors, "ResourceBoundError", None)
        hooks = self._hooks()
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    name = f"{layer}:{attr}"
                    replace[id(obj)] = (obj, self.span(name, obj, hooks.get(name)))
                elif inspect.isclass(obj):
                    self._patch_class(layer, obj, hooks)
        lattice = modules.get("lattice")
        dual = getattr(lattice, "_dual_description", None)
        if inspect.isfunction(dual):
            replace[id(dual)] = (dual, self.counting("lattice.dual.computed", "lattice:_dual_description", dual))
        for mod in [sys.modules.get("semitoric")] + list(modules.values()):
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        self.missing = [n for n in NAMED if n not in self.installed]

    def _patch_class(self, layer, cls, hooks):
        owner = f"{layer}:{cls.__name__}"
        if cls.__name__ in COUNTERS:
            for attr, key in COUNTERS[cls.__name__].items():
                fn = cls.__dict__.get(attr)
                if inspect.isfunction(fn):
                    setattr(cls, attr, self.counting(key, f"{owner}.{attr}", fn))
            return
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and (attr, cls.__name__) != ("__init__", "Cone"):
                continue
            name = f"{owner}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__, hooks.get(name))))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.span(name, raw.__func__, hooks.get(name))))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.span(name, raw, hooks.get(name)))

    def _hooks(self):
        pell = self.counter("quadfield.pell_steps")
        box = self.counter("cusp.box_used")
        useful = self.counter("lattice.intersection.useful")

        def pell_steps(unit):
            # loop index of the Pell search: 2b for D = 1 mod 4, else b
            pell[0] += int(unit.b * (2 if unit.D % 4 == 1 else 1))

        def box_used(chain):
            box[0] += chain.box_used

        def intersection(cone):
            useful[0] += bool(cone.generators)

        return {"quadfield:fundamental_unit": pell_steps, "cusp:hull_vertices": box_used,
                "lattice:cone_intersection": intersection}

    # -- results -------------------------------------------------------------------------

    def metrics(self):
        """Per-layer self times, kernel group times and counters."""
        names = self.names
        layer_of = [n.split(":")[0] for n in names]
        layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
        group_bit = {g: 1 << (len(LAYERS) + i) for i, g in enumerate(GROUPS)}
        name_bits = []
        name_group = []
        for n, layer in zip(names, layer_of):
            group = next((g for g, members in GROUPS.items() if n in members), None)
            name_group.append(group)
            name_bits.append(layer_bit.get(layer, 0) | (group_bit[group] if group else 0))
        count = len(self.name)
        child = [0.0] * count
        mask = [0] * count
        per_name = [0] * len(names)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        group_time = dict.fromkeys(GROUPS, 0.0)
        series_bit = layer_bit["series"]
        inv_id = self._ids.get("lattice:IntMatrix.inverse_unimodular")
        coord_id = self._ids.get("series:Framing.coordinates")
        check_id = self._ids.get("series:effectivity_check")
        inverses = terms = 0
        start, end, name, parent = self.start, self.end, self.name, self.parent
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
                mask[i] = mask[p] | name_bits[name[i]]
            else:
                mask[i] = name_bits[name[i]]
        for i in range(count):
            nid = name[i]
            dur = end[i] - start[i]
            per_name[nid] += 1
            layer_self[layer_of[nid]] += dur - child[i]
            group = name_group[nid]
            p = parent[i]
            if group and (p < 0 or not mask[p] & group_bit[group]):
                group_time[group] += dur
            if nid == inv_id and p >= 0 and mask[p] & series_bit:
                inverses += 1
            if nid == coord_id and p >= 0 and name[p] == check_id:
                terms += 1

        def calls(*full_names):
            return sum(per_name[self._ids[n]] for n in full_names if n in self._ids)

        def counted(key):
            return self.counts.get(key, [0])[0]

        intersections = calls("lattice:cone_intersection")
        out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
        out.update({
            "quadfield.pell_steps": (counted("quadfield.pell_steps"), "count"),
            "cusp.box_used": (counted("cusp.box_used"), "count"),
            "cusp.bound_exits": (counted("cusp.bound_exits"), "count"),
            "lattice.cones_built": (calls("lattice:Cone.__init__"), "count"),
            "lattice.dual.calls": (calls("lattice:Cone.dual_description"), "count"),
            "lattice.dual.computed": (counted("lattice.dual.computed"), "count"),
            "lattice.intersection.calls": (intersections, "count"),
            "lattice.intersection.self_s": (group_time["lattice.intersection"], "s"),
            "lattice.intersection.useful_ratio": (
                counted("lattice.intersection.useful") / intersections if intersections else 0.0, "ratio"),
            "lattice.faces.calls": (calls("lattice:faces"), "count"),
            "lattice.faces.self_s": (group_time["lattice.faces"], "s"),
            "lattice.scalar_ops": (counted("lattice.scalar_ops"), "count"),
            "lattice.vector_dot.calls": (counted("lattice.vector_dot.calls"), "count"),
            "lattice.rref.calls": (calls(*GROUPS["lattice.rref"]), "count"),
            "lattice.rref.self_s": (group_time["lattice.rref"], "s"),
            "lattice.normal_forms.self_s": (group_time["lattice.normal_forms"], "s"),
            "monodromy.log.calls": (calls("monodromy:unipotent_log"), "count"),
            "monodromy.weight_spaces.calls": (calls("monodromy:weight_spaces"), "count"),
            "series.terms": (terms, "count"),
            "series.inverses_per_term": (inverses / terms if terms else 0.0, "ratio"),
            "trace.missing": (len(self.missing), "count"),
        })
        return out

    def dump(self, path):
        """Write every span, once, as gzipped column arrays."""
        with gzip.open(path, "wt") as fh:
            json.dump({
                "names": self.names,
                "missing": self.missing,
                "name": self.name.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "job": self.jobs.tolist(),
                "counters": {k: v[0] for k, v in self.counts.items()},
            }, fh)
