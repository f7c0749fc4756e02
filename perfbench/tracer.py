"""Span tracer and module profile for the hilbfock benchmark.

The tracer wraps hilbfock's functions from the outside: nothing under src/
changes.  A module-level function is replaced under every hilbfock name that
holds it, because callers look names up where they imported them (ring and
orbifold import apply_operator, cli imports the verifiers).  A method is
replaced on its class.  Spans (name, start, end, parent) are kept in memory in
flat arrays and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import pstats
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (span name, "module:qualname").  Two targets may share a span name.
SPANS = (
    ("cli.main", "hilbfock.cli:main"),
    ("cli.to_json", "hilbfock.cli:_emit"),
    ("cli.to_json", "hilbfock.ring:StructureTable.to_json"),
    ("verify.lemma_ks", "hilbfock.vertex:verify_lemma_ks"),
    ("verify.polynomiality", "hilbfock.ring:verify_polynomiality"),
    ("ring.fit_polynomial", "hilbfock.ring:fit_polynomial_in_n"),
    ("ring.structure_constants", "hilbfock.ring:RingEngine.structure_constants"),
    ("ring.b_product", "hilbfock.ring:RingEngine.b_product"),
    ("ring.product_vector", "hilbfock.ring:RingEngine.product_vector"),
    ("ring.word_on_basis", "hilbfock.ring:RingEngine.word_on_basis"),
    ("ring.express", "hilbfock.ring:RingEngine.express"),
    ("vertex.apply_operator", "hilbfock.vertex:apply_operator"),
    ("fock.apply_word_tau", "hilbfock.fock:FockSpace.apply_word_tau"),
    ("fock.create_raw", "hilbfock.fock:FockSpace.create_raw"),
    ("fock.annihilate_raw", "hilbfock.fock:FockSpace.annihilate_raw"),
    ("fock.expand_in_basis", "hilbfock.fock:FockSpace.expand_in_basis"),
    ("surface.diagonal_pushforward",
     "hilbfock.surface:SurfaceModel.diagonal_pushforward"),
    ("partitions.enumerate", "hilbfock.partitions:enumerate_partition_functions"),
)

# Called millions of times per run: counted, not spanned.
COUNTS = (
    ("partitions.cost_degree", "hilbfock.partitions:PartitionFunction.cost"),
    ("partitions.cost_degree", "hilbfock.partitions:PartitionFunction.degree"),
)

# Spans whose calls are answered from an engine memo when they make no
# wrapped call below them.
HIT_RATIO = ("ring.express", "ring.word_on_basis")


def _terms(obj):
    """Size of a term dict returned at a boundary (0 for anything else)."""
    if isinstance(obj, tuple) and obj:
        obj = obj[0]
    obj = getattr(obj, "terms", obj)
    return len(obj) if isinstance(obj, dict) else 0


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _rank(ordered, q):
    """Nearest-rank q-quantile of a sorted list (0 when it is empty)."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0.0


class Tracer:
    def __init__(self):
        self.names = list(dict.fromkeys(name for name, _ in SPANS))
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = []
        # every metric exists, reading 0, even when its target is missing
        self.counts = {f"{name}.{key}": 0 for name in self.names
                       for key in ("calls", "self_ns")}
        self.counts.update(dict.fromkeys(
            [f"{name}.calls" for name, _ in COUNTS] +
            ["fock.raw.terms_out", "vertex.apply_operator.terms_in",
             "vertex.apply_operator.terms_out", "surface.diagonal_pushforward.repeats"],
            0))
        self.peak_terms = 0
        self.missing = []
        # (model, class, k) keys; holding the model keeps its identity unique
        self._tensors_seen = set()
        self._after = {
            "fock.create_raw": self._raw_out,
            "fock.annihilate_raw": self._raw_out,
            "vertex.apply_operator": self._operator_terms,
            "surface.diagonal_pushforward": self._tensor_repeat,
        }

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn):
        nid = self._ids[name]
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            size = _terms(result)
            if size > self.peak_terms:
                self.peak_terms = size
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        key = f"{name}.calls"
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _raw_out(self, args, result):
        self.counts["fock.raw.terms_out"] += len(result)

    def _operator_terms(self, args, result):
        self.counts["vertex.apply_operator.terms_in"] += _terms(args[2])
        self.counts["vertex.apply_operator.terms_out"] += _terms(result)

    def _tensor_repeat(self, args, result):
        model, cls, k = args[0], args[1], args[2]
        key = (model, tuple(sorted(cls.items())), k)
        if key in self._tensors_seen:
            self.counts["surface.diagonal_pushforward.repeats"] += 1
        else:
            self._tensors_seen.add(key)

    # -- installation ------------------------------------------------------------------

    def _patch(self, target, wrap, undo):
        modname, _, qual = target.partition(":")
        *path, attr = qual.split(".")
        owner = sys.modules.get(modname)
        try:
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
        except AttributeError:
            self.missing.append(target)
            return
        wrapped = wrap(orig)
        if path:
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, orig))
            return
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "hilbfock" or mname.startswith("hilbfock.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name, target in SPANS:
                self._patch(target, lambda fn, name=name: self._span(name, fn), undo)
            for name, target in COUNTS:
                self._patch(target, lambda fn, name=name: self._counter(name, fn), undo)
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------------------

    def summarize(self):
        """Per-layer metrics from the recorded spans.  Raises if any span's
        self time is negative, which would mean a broken span tree."""
        n = len(self.name)
        child_ns = [0] * n
        children = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
                children[p] += 1
        counts = dict(self.counts)
        hits = dict.fromkeys(HIT_RATIO, 0)
        b_product_id = self._ids["ring.b_product"]
        misses_ms = []
        for i in range(n):
            dur = self.end[i] - self.start[i]
            self_ns = dur - child_ns[i]
            if self_ns < 0:
                raise AssertionError(f"negative self time in span {i} "
                                     f"({self.names[self.name[i]]})")
            name = self.names[self.name[i]]
            counts[f"{name}.calls"] += 1
            counts[f"{name}.self_ns"] += self_ns
            if name in hits and not children[i]:
                hits[name] += 1
            if self.name[i] == b_product_id and children[i]:
                misses_ms.append(dur / 1e6)
        out = {}
        for key, val in counts.items():
            if key.endswith(".self_ns"):
                out[key[:-2] + "s"] = val / 1e9
            else:
                out[key] = val
        for name, hit in hits.items():
            out[f"{name}.hit_ratio"] = _ratio(hit, out[f"{name}.calls"])
        out["surface.diagonal_pushforward.repeat_ratio"] = _ratio(
            out.pop("surface.diagonal_pushforward.repeats"),
            out["surface.diagonal_pushforward.calls"])
        misses_ms.sort()
        out["ring.b_product.p50_ms"] = _rank(misses_ms, 0.5)
        out["ring.b_product.p90_ms"] = _rank(misses_ms, 0.9)
        out["fock.peak_terms"] = self.peak_terms
        return out

    def write(self, path):
        """All spans, as parallel columns, gzip-compressed JSON."""
        doc = {"names": self.names, "name": self.name.tolist(),
               "parent": self.parent.tolist(), "start_ns": self.start.tolist(),
               "end_ns": self.end.tolist(), "missing_targets": self.missing}
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def module_profile(profile):
    """Self time and calls per module from a cProfile run:
    {module: (self_s, calls)}, built-in functions under 'builtins'."""
    files = {}
    for mname, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None)
        if path:
            files[os.path.abspath(path)] = mname
    out = {}
    for (path, _line, _func), (_cc, calls, tottime, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        mname = "builtins" if path == "~" else files.get(os.path.abspath(path), path)
        self_s, ncalls = out.get(mname, (0.0, 0))
        out[mname] = (self_s + tottime, ncalls + calls)
    return out
