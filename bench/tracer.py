"""In-memory tracing of curverope's public functions, installed from outside.

``Tracer.install`` wraps every function named in each traced module's
``__all__`` and replaces the function object wherever a ``curverope``
namespace holds it, so re-imports such as ``from .phasor import ...`` in
the package root, in ``cli`` or in ``oracle`` are traced too. Names that no
longer exist are skipped, so renamed or deleted functions drop out of the
trace without breaking it. ``uninstall`` puts every original back.

Accounting is per module. A call made while the innermost open span belongs
to the same module continues that span's accounting; a call into another
module opens a child whose whole duration is subtracted from the parent.
So a module's ``self_s`` is its span time minus the time of child spans in
other modules, and the ``self_s`` values of all modules add up to the time
covered by top-level spans. Classes are not wrapped: methods and dataclass
validation (``__post_init__``) are billed to the module of the caller.

Spans are kept in memory as flat arrays and written once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "curverope"
MODULES = (
    "cli", "camera", "phasor", "rope", "attention", "head", "supervision",
    "teacher_mix", "scene", "oracle", "checks", "trainer", "formats",
)


class Tracer:
    def __init__(self, probes: dict | None = None, watch: tuple = ()):
        # probes: {"module.function": callable(tracer, args, kwargs, result)},
        # run after every call of that function. watch: functions whose
        # currently open call count a probe may read from open_calls.
        self.probes = probes or {}
        self.watch = set(watch)
        self.names: list[str] = []
        self.modules: list[str] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.open_calls: Counter = Counter()
        self.request = 0
        self._stack: list[list] = []  # [module, span index, child time in other modules]
        self._patched: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and id(obj) not in targets:
                    owner = obj.__module__.rpartition(".")[2]
                    targets[id(obj)] = (obj, self._wrap(obj, owner if owner in MODULES else short))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, module: str):
        key = f"{module}.{fn.__name__}"
        fn_id = len(self.names)
        self.names.append(key)
        self.modules.append(module)
        probe = self.probes.get(key)
        watched = key in self.watch
        stack, open_calls, self_s = self._stack, self.open_calls, self.self_s
        add_fn, add_parent = self.span_fn.append, self.span_parent.append
        add_request, add_start = self.span_request.append, self.span_start.append
        add_end, ends = self.span_end.append, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = len(ends)
            add_fn(fn_id)
            add_parent(parent[1] if parent else -1)
            add_request(self.request)
            add_end(0.0)
            if watched:
                open_calls[key] += 1
            frame = [module, span, 0.0]
            stack.append(frame)
            start = clock()
            add_start(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                ends[span] = end
                if watched:
                    open_calls[key] -= 1
                if parent is not None and parent[0] == module:
                    parent[2] += frame[2]  # same module: the parent keeps accounting
                else:
                    self_s[module] += (end - start) - frame[2]
                    if parent is not None:
                        parent[2] += end - start
            if probe is not None:
                probe(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def calls(self) -> Counter:
        """Traced calls per module."""
        per_fn = Counter(self.span_fn)
        out: Counter = Counter()
        for fn_id, n in per_fn.items():
            out[self.modules[fn_id]] += n
        return out

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span once, as columns: function, parent, request, start, end."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            fn=np.frombuffer(self.span_fn, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
