"""Spans around the package's public functions, installed from outside it.

`Tracer.install` wraps every public module-level function and every public
method of the package's classes.  A function is rebound in its defining
module and in every module that imported it by name, because a
`from .x import f` binding does not see a patch of `x.f`.  Each span adds
its duration to its parent span, so a function's self time is its duration
minus the time covered by the spans nested in it.  Spans are aggregated per
function in the process that ran them and sent back to the parent.
"""

from __future__ import annotations

import functools
import importlib
import time
import types

MODULES = ("cli", "presets", "abelian", "rootdatum", "galois", "weyl",
           "coweights", "satake", "dual", "rep", "suites")

_LRU = functools._lru_cache_wrapper

# Cached functions whose result size is counted on cache misses.
SIZE_ON_MISS = {
    "weyl.enumerate_absolute_weyl": "weyl.enumerate_absolute_weyl.elements",
    "rep.irreducible_character": "rep.irreducible_character.weights",
}
ENUMERATE = "coweights.enumerate_dominant_classes"
CANDIDATE = "coweights.class_height"


def _size(result):
    return len(getattr(result, "entries", result))


class Tracer:
    def __init__(self):
        self.lru = {}          # every lru_cache in the package, by name
        self._stack = []       # time covered by child spans, per open span
        self._enumerating = 0
        self.begin()

    def begin(self):
        """Start a fresh record (in a newly forked child)."""
        self.spans = {}        # name -> [calls, total seconds, self seconds]
        self.counts = {}
        self._misses_at_start = {n: f.cache_info().misses for n, f in self.lru.items()}

    def _add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        stack = self._stack
        sized = SIZE_ON_MISS.get(name)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name == CANDIDATE and tracer._enumerating:
                tracer._add(ENUMERATE + ".candidates", 1)
            if name == ENUMERATE:
                tracer._enumerating += 1
            misses = fn.cache_info().misses if sized else 0
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec = tracer.spans.get(name)
                if rec is None:
                    rec = tracer.spans[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                if name == ENUMERATE:
                    tracer._enumerating -= 1
            if sized and fn.cache_info().misses > misses:
                tracer._add(sized, _size(result))
            if name == ENUMERATE:
                tracer._add(ENUMERATE + ".kept", len(result))
            return result

        return span

    def install(self):
        """Wrap the package's public functions and methods, everywhere they
        are bound at module level."""
        package = importlib.import_module("twisted_satake")
        modules = {m: importlib.import_module(f"twisted_satake.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, _LRU):
                    self.lru[f"{short}.{attr}"] = obj
                if attr.startswith("_"):
                    continue
                if isinstance(obj, (types.FunctionType, _LRU)):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif isinstance(obj, type):
                    self._wrap_methods(f"{short}.{attr}", obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(mod, attr, entry[1])
        self.begin()

    def _wrap_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", member))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(f"{prefix}.{attr}", member.__func__)))

    def snapshot(self):
        """This process's spans and counts since `begin`, as plain data."""
        counts = dict(self.counts)
        for name, f in self.lru.items():
            counts[f"{name}.misses"] = f.cache_info().misses - self._misses_at_start[name]
        counts["cache.entries"] = sum(f.cache_info().currsize for f in self.lru.values())
        return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": counts}


def merge(snapshots):
    spans, counts = {}, {}
    for snap in snapshots:
        for name, rec in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return {"spans": spans, "counts": counts}


# (metric, unit, how to read it from the merged trace)
def _calls(name):
    return lambda t: t["spans"].get(name, [0, 0.0, 0.0])[0]


def _self(name):
    return lambda t: t["spans"].get(name, [0, 0.0, 0.0])[2]


def _count(name):
    return lambda t: t["counts"].get(name, 0)


def _module_self(module):
    return lambda t: sum(rec[2] for name, rec in t["spans"].items()
                         if name.split(".", 1)[0] == module)


def _yield(t):
    candidates = t["counts"].get(ENUMERATE + ".candidates", 0)
    return t["counts"].get(ENUMERATE + ".kept", 0) / candidates if candidates else 0.0


LAYER_METRICS = (
    ("abelian.smith_normal_form.calls", "count", _calls("abelian.smith_normal_form")),
    ("abelian.smith_normal_form.self_s", "s", _self("abelian.smith_normal_form")),
    ("abelian.rational_solve.calls", "count", _calls("abelian.rational_solve")),
    ("abelian.rational_solve.self_s", "s", _self("abelian.rational_solve")),
    ("abelian.QuotientPresentation.class_of.calls", "count",
     _calls("abelian.QuotientPresentation.class_of")),
    ("galois.average_map.calls", "count", _calls("galois.average_map")),
    ("galois.average_map.misses", "count", _count("galois.average_map.misses")),
    ("rootdatum.RhoData.two_rho_levi.calls", "count", _calls("rootdatum.RhoData.two_rho_levi")),
    ("rootdatum.RhoData.two_rho_levi.self_s", "s", _self("rootdatum.RhoData.two_rho_levi")),
    ("weyl.enumerate_absolute_weyl.elements", "count",
     _count("weyl.enumerate_absolute_weyl.elements")),
    ("weyl.enumerate_absolute_weyl.self_s", "s", _self("weyl.enumerate_absolute_weyl")),
    ("weyl.RelativeWeylGroup.act.calls", "count", _calls("weyl.RelativeWeylGroup.act")),
    ("coweights.enumerate_dominant_classes.candidates", "count",
     _count(ENUMERATE + ".candidates")),
    ("coweights.enumerate_dominant_classes.kept", "count", _count(ENUMERATE + ".kept")),
    ("coweights.enumerate_dominant_classes.yield", "ratio", _yield),
    ("coweights.leq.calls", "count", _calls("coweights.leq")),
    ("coweights.leq.self_s", "s", _self("coweights.leq")),
    ("coweights.dominant_representative.self_s", "s", _self("coweights.dominant_representative")),
    ("satake.SchubertPoset.covering_relations.self_s", "s",
     _self("satake.SchubertPoset.covering_relations")),
    ("dual.fixed_group_descriptor.calls", "count", _calls("dual.fixed_group_descriptor")),
    ("dual.fixed_group_descriptor.self_s", "s", _self("dual.fixed_group_descriptor")),
    ("rep.irreducible_character.misses", "count", _count("rep.irreducible_character.misses")),
    ("rep.irreducible_character.weights", "count", _count("rep.irreducible_character.weights")),
    ("rep.irreducible_character.self_s", "s", _self("rep.irreducible_character")),
    ("rep.branch_to_fixed_group.self_s", "s", _self("rep.branch_to_fixed_group")),
    ("rep.decompose_tensor.self_s", "s", _self("rep.decompose_tensor")),
    ("suites.run_suite.self_s", "s", _self("suites.run_suite")),
    ("cli.main.self_s", "s", _self("cli.main")),
    ("cache.entries", "count", _count("cache.entries")),
) + tuple((f"{m}.self_s", "s", _module_self(m)) for m in MODULES)


def layer_metrics(trace):
    """Per-layer metrics and each module's share of the traced self time."""
    out = {name: {"value": read(trace), "unit": unit} for name, unit, read in LAYER_METRICS}
    total = sum(out[f"{m}.self_s"]["value"] for m in MODULES)
    for m in MODULES:
        share = out[f"{m}.self_s"]["value"] / total if total else 0.0
        out[f"{m}.share"] = {"value": share, "unit": "ratio"}
    return out
