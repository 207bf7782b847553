"""Span tracer that wraps entkit's public functions from the outside.

``Tracer.install`` replaces every public function of the traced modules
(and the ``__post_init__`` validation of their public dataclasses) by a
wrapper that records one span per call: function, start, end, parent span
and operation id.  Calls made inside entkit go through module attributes,
so they are caught too; nothing in the package changes.  ``uninstall``
puts the originals back, so untraced passes run the bare code.

Spans live in flat arrays while the run lasts, and are summarized and
written out when it ends.  A span's self time is its duration
minus the durations of its direct children.
"""

import inspect
import time
from array import array

import numpy as np

MODULES = ("kernels", "matcore", "states", "maps", "measures", "dynamics", "cli")


def _useful_sweep(gain):
    return {"kernels.eof_sweep.useful": float(gain >= 1e-10)}


# Counts taken from return values, keyed by span name.
RETURN_COUNTS = {
    "kernels.eof_sweep": _useful_sweep,
    "measures.eof_upper": lambda r: {"measures.eof_upper.restarts": r.restarts_used},
    "measures.dcoef": lambda r: {"measures.dcoef.restarts": r.restarts_used},
    "maps.is_decomposable": lambda r: {"maps.is_decomposable.iterations": r.iterations},
    "maps.is_block_positive": lambda r: {"maps.is_block_positive.restarts": r.restarts_used},
    "dynamics.evolve_track": lambda r: {"dynamics.evolve_track.points": len(r.points)},
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.fid = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.op_id = -1
        self._stack = []
        self._saved = []
        self._plan = [
            (owner, attr, self._wrap(name, getattr(owner, attr)))
            for owner, attr, name in self._targets()
        ]

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        counter = RETURN_COUNTS.get(name)
        clock = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.fid)
            self.fid.append(fid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if counter is not None:
                for key, val in counter(out).items():
                    self.counts[key] = self.counts.get(key, 0.0) + val
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def _targets(self):
        for short in MODULES:
            mod = getattr(self.package, short)
            home = mod.__name__
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith(home):
                    yield mod, attr, f"{short}.{attr}"
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == home
                    and "__post_init__" in vars(obj)
                ):
                    yield obj, "__post_init__", f"{short}.{attr}"

    def install(self):
        for owner, attr, wrapped in self._plan:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self):
        """Per function: calls, inclusive seconds and self seconds."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        incl = np.bincount(fid, weights=dur, minlength=n)
        own = np.bincount(fid, weights=dur - child, minlength=n)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            fid=np.frombuffer(self.fid, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
