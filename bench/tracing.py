"""Spans around the public functions of each dyckframes layer, from outside.

`Tracer.install` replaces every binding of a traced function in the
loaded dyckframes modules, so names imported with `from .x import y`
(frames.parse_path, counting.enumerate_frames, counting.ensure_frame)
and the cmd_* handlers that cli.build_parser looks up at each call are
all covered.  A returned iterator is wrapped too, so that each step of
the iteration is a span of its own and the work of a generator is
charged to it rather than to whoever consumes it.  Spans live in flat
arrays while the ops run; self time is a span minus its children.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter, defaultdict
from collections.abc import Iterator
from time import perf_counter

TRACED = {
    "paths": ("enumerate_dyck", "enumerate_motzkin", "parse_path", "foot_count"),
    "frames": ("enumerate_frames", "frame_of", "canonical_representative",
               "is_admissible_trace", "is_admissible_closed", "ensure_frame"),
    "counting": ("catalan", "count_motzkin", "count_colored_dyck", "count_colored_motzkin",
                 "count_k_motzkin", "feet_table", "frame_cardinality", "FootTable.count",
                 "weak_compositions", "binomial_identity_check"),
    "cli": ("main", "cmd_feet_table", "cmd_frame", "cmd_count", "cmd_enumerate",
            "cmd_verify", "run_verification"),
}
LAYERS = tuple(TRACED)
ROOT = "bench.op"  # one per op; its self time is what no layer span covers
NEXT = "/next"  # suffix of the spans that cover one step of a returned iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._saved: list[tuple[object, str, object]] = []
        self.clear()

    def clear(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.exhausted: Counter[tuple[int, int]] = Counter()
        self._stack: list[int] = []
        self._op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    # ----------------------------------------------------------- patching

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "dyckframes" or name.startswith("dyckframes."))]
        for layer, functions in TRACED.items():
            home = sys.modules[f"dyckframes.{layer}"]
            for qualname in functions:
                owner, attr = home, qualname
                if "." in qualname:  # a method: patch it on its class
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                original = getattr(owner, attr)
                wrapped = self._wrap(original, f"{layer}.{qualname}")
                targets = [owner] if owner is not home else modules
                for target in targets:
                    for name, value in list(vars(target).items()):
                        if value is original:
                            self._saved.append((target, name, original))
                            setattr(target, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._saved):
            setattr(target, name, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        call_id, next_id = self._id(name), self._id(name + NEXT)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(call_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if isinstance(result, Iterator):
                return _TracedIter(tracer, result, next_id)
            return result

        return traced

    def run_op(self, op_index: int, fn, *args):
        """Call fn under the root span of op `op_index`."""
        self._op = op_index
        idx = self._open(self._id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # ---------------------------------------------------------- reporting

    def stats(self) -> dict[tuple[int, str], list]:
        """[calls, items, self seconds] per (op, traced name), from the spans."""
        start, end, parent = self.start, self.end, self.parent
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        base = [n[: -len(NEXT)] if n.endswith(NEXT) else n for n in self.names]
        is_next = [n.endswith(NEXT) for n in self.names]
        out: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0, 0.0])
        for i, nid in enumerate(self.name):
            rec = out[(self.op[i], base[nid])]
            rec[2] += dur[i] - child[i]
            rec[1 if is_next[nid] else 0] += 1
        for (op, nid), count in self.exhausted.items():
            out[(op, base[nid])][1] -= count
        return dict(out)

    def root_seconds(self) -> float:
        """Total duration of the root spans: the traced wall time of the ops."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path) -> None:
        """Spans as gzip csv: op, name, parent row, start and end seconds."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op,name,parent,start_s,end_s\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{self.op[i]},{self.names[nid]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


class _TracedIter:
    __slots__ = ("_it", "_tracer", "_nid")

    def __init__(self, tracer: Tracer, it: Iterator, nid: int) -> None:
        self._it, self._tracer, self._nid = it, tracer, nid

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        idx = tracer._open(self._nid)
        try:
            return next(self._it)
        except StopIteration:
            tracer.exhausted[(tracer._op, self._nid)] += 1
            raise
        finally:
            tracer._close(idx)
