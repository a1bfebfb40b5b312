"""In-process span tracer that wraps coalsim's public functions from outside.

Every public function of every coalsim module is replaced, at every module
attribute that binds it, by a wrapper that opens a span on entry and closes
it on exit.  Callers import functions by name (`from .simulation import
greatest_bisimulation`), so patching only the defining module would miss
them.  Generator functions get a span per resumption, so the time their
consumer spends between items is not charged to them.  The property
runners of `coalsim.properties.PROPERTIES` are private, so they are wrapped
through the registry under `properties.trial.<name>`.

Self time is a span's duration minus the durations of its direct child
spans.  It is summed per (command, function) as spans close, which keeps the
numbers exact however many spans there are.  The spans themselves (name,
start, end, parent span, call id) are kept in memory up to SPAN_CAP and
written out by `write_spans`.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter_ns


SPAN_CAP = 200_000  # spans kept for write_spans; about 8 MB of arrays


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_call = array("i")
        self.spans_dropped = 0
        # stack frames: [span index or -1, start ns, child ns]
        self._stack = [[-1, 0, 0]]
        self.call_id = -1
        self.command = ""
        # (command, name) -> [calls, inclusive ns, self ns]
        self.stats: dict = {}
        # name -> function(args, result) -> value appended to results[name]
        self.keep: dict = {}
        self.results: dict = {}
        self._patched: list = []

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int):
        stack = self._stack
        if len(self.span_name) < SPAN_CAP:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(stack[-1][0])
            self.span_call.append(self.call_id)
        else:
            idx = -1
            self.spans_dropped += 1
        frame = [idx, 0, 0]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def _close(self, frame, name: str, counted: bool) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        dur = end - frame[1]
        stack[-1][2] += dur
        idx = frame[0]
        if idx >= 0:
            self.span_start[idx] = frame[1]
            self.span_end[idx] = end
        key = (self.command, name)
        row = self.stats.get(key)
        if row is None:
            row = self.stats[key] = [0, 0, 0]
        row[0] += counted
        row[1] += dur
        row[2] += dur - frame[2]

    def wrap(self, name: str, fn):
        nid = self._nid(name)
        keep = self.keep.get(name)
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(frame, name, first)
                        return
                    except BaseException:
                        self._close(frame, name, first)
                        raise
                    self._close(frame, name, first)
                    first = False
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name, True)
            if keep is not None:
                self.results.setdefault(name, []).append(keep(args, result))
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public coalsim function wherever a coalsim module binds it."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (
                    inspect.isfunction(obj)
                    and not obj.__name__.startswith("_")
                    and obj.__module__.startswith(package.__name__ + ".")
                ):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                self._patched.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])
        registry = getattr(modules[0], "properties", None)
        registry = getattr(registry, "PROPERTIES", None) or {}
        for pname, spec in list(registry.items()):
            traced = self.wrap(f"properties.trial.{pname}", spec.runner)
            self._patched.append((registry, pname, spec))
            registry[pname] = dataclasses.replace(spec, runner=traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def totals(self, name: str, command: str | None = None) -> tuple:
        """(calls, inclusive ns, self ns) of one function, over one or all commands."""
        calls = incl = own = 0
        for (cmd, fname), (c, i, s) in self.stats.items():
            if fname == name and (command is None or cmd == command):
                calls += c
                incl += i
                own += s
        return calls, incl, own

    def write_spans(self, path) -> None:
        """Write the kept spans as gzip CSV: id,name,start_ns,end_ns,parent,call."""
        base = self.span_start[0] if len(self.span_start) else 0
        rows = ["id,name,start_ns,end_ns,parent,call"]
        for i in range(len(self.span_name)):
            rows.append(
                f"{i},{self.names[self.span_name[i]]},{self.span_start[i] - base},"
                f"{self.span_end[i] - base},{self.span_parent[i]},{self.span_call[i]}"
            )
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("\n".join(rows) + "\n")
