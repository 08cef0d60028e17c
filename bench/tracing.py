"""Per-layer spans and counters, installed from outside the package.

`Tracer` rebinds the traced functions wherever a module of `ifslab` holds
them (the defining module, every module that imported the name, and the
package itself), so calls between modules are seen as well as calls from
the benchmark.  Leaving the `with` block puts the original objects back.

A span records its name, start, end, parent span and request; a layer's
self time is its span time minus the time of the spans it caused.  The
similarity kernel (`compose`, `Similarity.apply`) is counted only: it runs
hundreds of thousands of times per second, and a span each would swamp
what it measures.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from ifslab.similarity import as_fraction

#: (module, attribute, layer metric prefix) of every span
SPANS = [
    ("similarity", "cylinder_cover", "similarity.cylinder_cover"),
    ("dimension", "ssc_gap", "dimension.ssc_gap"),
    ("dimension", "_merge", "dimension.merge"),
    ("embedding", "verify_embedding", "embedding.verify_embedding"),
    ("embedding", "renormalize_family", "embedding.renormalize_family"),
    ("embedding", "_locate_unique_cylinder",
     "embedding.locate_unique_cylinder"),
    ("commensurability", "log_commensurable",
     "commensurability.log_commensurable"),
    ("measures", "self_similar_measure", "measures.self_similar_measure"),
    ("measures", "shannon_entropy", "measures.shannon_entropy"),
    ("measures", "entropy_dimension", "measures.entropy_dimension"),
    ("measures", "_coarsen", "measures.coarsen"),
    ("measures", "pushforward", "measures.pushforward"),
    ("measures", "act_convolve", "measures.act_convolve"),
]
#: (module, attribute, counter) of the counted-only kernel calls
COUNTS = [
    ("similarity", "compose", "similarity.compose.calls"),
    ("similarity", "Similarity.apply", "similarity.apply.calls"),
]


def _work(name: str, args, result, stat: dict, cover_keys: set) -> None:
    """Work counts of one call, taken from its arguments and result."""
    if name == "similarity.cylinder_cover":
        stat["cylinders"] += len(result)
        cover_keys.add((args[0], as_fraction(args[1])))
    elif name == "dimension.merge":
        stat["intervals_in"] += len(args[0])
        stat["intervals_out"] += len(result)
    elif name == "embedding.verify_embedding":
        stat["rejected"] += result.status == "rejected"
    elif name == "embedding.renormalize_family":
        stat["entries"] += len(result.entries)
    elif name == "embedding.locate_unique_cylinder":
        stat["depth"] += args[3]
    elif name == "measures.self_similar_measure":
        stat["cells_allocated"] += result.masses.size
        stat["cells_nonzero"] += int(np.count_nonzero(result.masses))


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans: list[tuple] = []     # (id, parent, request, name, t0, t1)
        self.counts: dict = defaultdict(int)
        self.stats: dict = defaultdict(lambda: defaultdict(int))
        self.cover_keys: set = set()     # distinct (IFS, delta) covered
        self._ids = itertools.count()
        self._open: list[list] = []      # [span id, child seconds]
        self._undo: list[tuple] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._open[-1][0] if self._open else None
            frame = [span_id, 0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][1] += t1 - t0
                stat = self.stats[name]
                stat["calls"] += 1
                stat["self_s"] += t1 - t0 - frame[1]
                self.spans.append((span_id, parent, self.request, name,
                                   t0, t1))
            _work(name, args, result, stat, self.cover_keys)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ---------------------------------------------

    def _patch(self, module: str, attr: str, wrap) -> None:
        home = sys.modules["ifslab." + module]
        if "." in attr:                      # a method, patched on its class
            cls_name, meth = attr.split(".")
            owner = getattr(home, cls_name)
            orig = owner.__dict__[meth]
            setattr(owner, meth, wrap(orig))
            self._undo.append((owner, meth, orig))
            return
        orig = getattr(home, attr)
        new = wrap(orig)
        for name, mod in list(sys.modules.items()):
            if name == "ifslab" or name.startswith("ifslab."):
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._undo.append((mod, key, orig))

    def __enter__(self) -> "Tracer":
        for module, attr, name in SPANS:
            self._patch(module, attr,
                        lambda fn, name=name: self._span(name, fn))
        for module, attr, name in COUNTS:
            self._patch(module, attr,
                        lambda fn, name=name: self._counter(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)

    def restored(self) -> bool:
        """Whether every rebound name holds its original object again."""
        return all(vars(owner)[key] is orig
                   for owner, key, orig in self._undo)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; layers that never ran report 0."""
        out: dict[str, float] = {}
        for _, _, name in SPANS:
            stat = self.stats[name]
            out[f"{name}.calls"] = stat["calls"]
            out[f"{name}.self_s"] = float(stat["self_s"])
        cover = self.stats["similarity.cylinder_cover"]
        out["similarity.cylinder_cover.cylinders"] = cover["cylinders"]
        out["similarity.cylinder_cover.distinct_frac"] = (
            len(self.cover_keys) / cover["calls"] if cover["calls"] else 0.0)
        merge = self.stats["dimension.merge"]
        for key in ("intervals_in", "intervals_out"):
            out[f"dimension.merge.{key}"] = merge[key]
        for name, key in (("embedding.verify_embedding", "rejected"),
                          ("embedding.renormalize_family", "entries"),
                          ("embedding.locate_unique_cylinder", "depth")):
            out[f"{name}.{key}"] = self.stats[name][key]
        ssm = self.stats["measures.self_similar_measure"]
        out["measures.self_similar_measure.cells_allocated"] = \
            ssm["cells_allocated"]
        out["measures.self_similar_measure.cells_nonzero"] = \
            ssm["cells_nonzero"]
        out["measures.self_similar_measure.occupancy"] = (
            ssm["cells_nonzero"] / ssm["cells_allocated"]
            if ssm["cells_allocated"] else 0.0)
        for _, _, name in COUNTS:
            out[name] = self.counts[name]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "request", "name", "start", "end"),
                    span))) + "\n")
