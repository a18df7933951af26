"""Spans around the calls into each layer of the package, kept in memory.

`Tracer.install()` replaces each listed function with a wrapper in every
`gpktheory` module that holds a reference to it (and methods on their
class), so calls made inside the package are recorded too.  A span is
(name, start, end, parent span, op id, raised).  Spans are kept in flat
arrays and written out once, at the end of the run.

Self time is a span's duration minus the durations of its child spans.
Helper spans (private functions wrapped only so that cache hits can be read
off the parent/child structure) are not reported; their self time is
credited to the nearest reported ancestor.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# module -> functions reported as <module>.<fn>.calls and .self_s
LAYERS = {
    "exactla": (
        "rref", "rank_of", "kernel", "LinearSolver.solve", "FieldSpec.matmul",
        "smith_normal_form",
    ),
    "presentation": ("build_algebra", "opposite"),
    "rep": (
        "hom_basis", "decompose", "is_isomorphic", "syzygy", "ext1_class_reps",
        "middle_term",
    ),
    "gorenstein": ("dimension_report", "gp_catalog", "certify_gp"),
    "stable": ("is_weakly_equivalent", "stable_end_algebra"),
    "ktheory": ("build_k0_input", "k1_gorenstein", "unit_group"),
    "waldhausen": ("build_wdata", "k0_oracle", "gluing_check"),
    "morita": (
        "tensor_algebra", "regular_bimodule", "tensor_bimodules", "check_semt",
        "check_unit_counit_pd", "compare_invariants",
    ),
    "cli": ("main", "parse", "serialize"),
}

# wrapped for their parentage only: a cache lookup that has no child build
# span was a hit
HELPERS = {
    "rep": ("_syzygy_once", "projective_cover"),
    "stable": ("_space_cache", "StableHomSpace.__init__"),
    "waldhausen": ("_exhaustive_cofibrations", "_split_cofibration"),
}

# (cache lookup span, the build span it has as a child on a miss)
HIT_RATIOS = {
    "rep.syzygy_cache.hit_ratio": ("rep._syzygy_once", "rep.projective_cover"),
    "stable.space_cache.hit_ratio": ("stable._space_cache", "stable.StableHomSpace.__init__"),
    "morita.tensor_cache.hit_ratio": ("morita.tensor_algebra", "presentation.build_algebra"),
}

# counts that must repeat exactly between two traced runs with one seed
EXTRA_COUNTS = (
    "gorenstein.catalog_items",
    "ktheory.k0_rows",
    "waldhausen.candidates",
    "waldhausen.cofibrations",
    "waldhausen.split_only_pairs",
)


def per_layer_metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{mod}.{fn}.calls", "count"))
            out.append((f"{mod}.{fn}.self_s", "s"))
        out.append((f"{mod}.failed", "count"))
    out += [(name, "ratio") for name in HIT_RATIOS]
    out += [(name, "count") for name in EXTRA_COUNTS]
    out += [
        ("ktheory.k0_rows.useful_ratio", "ratio"),
        ("waldhausen.candidates.useful_ratio", "ratio"),
        ("trace.spans", "count"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.on = False
        self.op = -1
        self.names = []
        self.name_ids = {}
        self.helper_ids = set()
        self.stack = [-1]
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_raised = array("b")
        self.counts = dict.fromkeys(("catalog_items", "k0_rows", "k0_rows_nonzero",
                                     "candidates", "cofibrations", "exhaustive_found"), 0)

    # -- installation ------------------------------------------------------

    def install(self):
        mods = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("gpktheory.")
        }
        pkg = sys.modules["gpktheory"]
        for table, helper in ((LAYERS, False), (HELPERS, True)):
            for modname, fns in table.items():
                for fn in fns:
                    self._patch(mods, pkg, modname, fn, helper)

    def _patch(self, mods, pkg, modname, qualname, helper):
        name = f"{modname}.{qualname}"
        nid = len(self.names)
        self.names.append(name)
        self.name_ids[name] = nid
        if helper:
            self.helper_ids.add(nid)
        mod = mods[modname]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, self._wrap(nid, cls.__dict__[meth], name))
            return
        orig = getattr(mod, qualname)
        wrapper = self._wrap(nid, orig, name)
        for m in list(mods.values()) + [pkg]:
            for attr, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, attr, wrapper)

    def _wrap(self, nid, fn, name):
        hook = _HOOKS.get(name)
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, s_raised = self.s_start, self.s_end, self.s_raised
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(tracer.op)
            s_end.append(0.0)
            s_raised.append(0)
            stack.append(i)
            before = hook[0](tracer, args) if hook else None
            s_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                s_raised[i] = 1
                raise
            finally:
                s_end[i] = clock()
                stack.pop()
            if hook:
                hook[1](tracer, args, out, before)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- results -----------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.s_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.s_parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.s_op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.s_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.s_end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.s_raised, dtype=np.int8).copy(),
        }

    def write(self, path):
        np.savez(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def layer_metrics(self):
        """Per-layer metrics, without trace.overhead_ratio."""
        sp = self.arrays()
        name, parent = sp["name"], sp["parent"]
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = parent >= 0
        child_time = np.zeros(len(name))
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time
        # credit helper self time to the nearest reported ancestor
        is_helper = np.isin(name, sorted(self.helper_ids))
        anc = np.where(is_helper, parent, -1)
        while True:
            climb = (anc >= 0) & is_helper[np.maximum(anc, 0)]
            if not climb.any():
                break
            anc[climb] = parent[anc[climb]]
        moved = is_helper & (anc >= 0)
        np.add.at(self_time, anc[moved], self_time[moved])
        self_time[is_helper] = 0.0
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=self_time, minlength=n_names)
        # a failure is counted where the exception left a span none of whose
        # children raised
        raised = sp["raised"].astype(bool)
        child_raised = np.zeros(len(name), dtype=np.int64)
        np.add.at(child_raised, parent[raised & has_parent], 1)
        origin = raised & (child_raised == 0)
        failed_by_name = np.bincount(name[origin], minlength=n_names)

        m = {}
        for mod, fns in LAYERS.items():
            for fn in fns:
                nid = self.name_ids[f"{mod}.{fn}"]
                m[f"{mod}.{fn}.calls"] = int(calls[nid])
                m[f"{mod}.{fn}.self_s"] = float(self_s[nid])
            ids = [i for i, nm in enumerate(self.names) if nm.split(".", 1)[0] == mod]
            m[f"{mod}.failed"] = int(failed_by_name[ids].sum())
        for metric, (lookup, build) in HIT_RATIOS.items():
            lid, bid = self.name_ids[lookup], self.name_ids[build]
            lookups = np.flatnonzero(name == lid)
            builds = np.zeros(len(name), dtype=np.int64)
            under = (name == bid) & has_parent
            np.add.at(builds, parent[under], 1)
            hits = int((builds[lookups] == 0).sum())
            m[metric] = hits / len(lookups) if len(lookups) else 0.0
        c = self.counts
        m["gorenstein.catalog_items"] = c["catalog_items"]
        m["ktheory.k0_rows"] = c["k0_rows"]
        m["waldhausen.candidates"] = c["candidates"]
        m["waldhausen.cofibrations"] = c["cofibrations"]
        m["waldhausen.split_only_pairs"] = int(
            calls[self.name_ids["waldhausen._split_cofibration"]]
        )
        m["ktheory.k0_rows.useful_ratio"] = (
            c["k0_rows_nonzero"] / c["k0_rows"] if c["k0_rows"] else 0.0
        )
        m["waldhausen.candidates.useful_ratio"] = (
            c["exhaustive_found"] / c["candidates"] if c["candidates"] else 0.0
        )
        m["trace.spans"] = len(name)
        return m



def deterministic_counts(metrics):
    """The per-layer counts that must repeat exactly for one seed."""
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in EXTRA_COUNTS}


# ---------------------------------------------------------------------------
# counters read off arguments and results: (before(tracer, args), after(...))


def _no_before(tracer, args):
    return None


def _catalog_after(tracer, args, out, before):
    tracer.counts["catalog_items"] += len(out.items)


def _k0_input_after(tracer, args, out, before):
    rows = out.matrix.rows
    tracer.counts["k0_rows"] += len(rows)
    tracer.counts["k0_rows_nonzero"] += sum(1 for r in rows if any(r))


def _wdata_after(tracer, args, out, before):
    tracer.counts["cofibrations"] += len(out.cofibrations)


def _exhaustive_before(tracer, args):
    data, _x, _y, h = args
    tracer.counts["candidates"] += data.algebra.field.char ** h
    return len(data.cofibrations)


def _exhaustive_after(tracer, args, out, before):
    tracer.counts["exhaustive_found"] += len(args[0].cofibrations) - before


_HOOKS = {
    "gorenstein.gp_catalog": (_no_before, _catalog_after),
    "ktheory.build_k0_input": (_no_before, _k0_input_after),
    "waldhausen.build_wdata": (_no_before, _wdata_after),
    "waldhausen._exhaustive_cofibrations": (_exhaustive_before, _exhaustive_after),
}
