"""Spans around decaysched's public functions, installed from outside the package.

``Tracer.install()`` replaces every public function of every decaysched
module (the names in each module's ``__all__``), plus the scipy ``quad``
that ``analysis`` calls and ``ProbabilityVector`` construction, with a
timing wrapper.  A function imported by name into other modules is replaced
in each of them, so calls between modules are seen too.  ``uninstall()``
puts the originals back.  Nothing under ``src/`` is edited.

For each wrapped name the tracer keeps ``calls``, ``busy_ns`` and
``self_ns``, and it counts the trial rows passed to ``count_positive_trials``.
Busy time counts a recursive function (nested ``quad``) once; self time is
busy time minus the time covered by wrapped children.  Top-level spans
(those entered with nothing else wrapped on the stack) are summed in
``top_ns``, so the caller can check that they account for the operation.

Layer names are module names without the leading underscore, so
``decaysched._kernels.best_permutation`` is ``kernels.best_permutation``.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def package_modules():
    """The decaysched package and every module in it, imported."""
    import decaysched

    modules = [decaysched]
    for info in pkgutil.iter_modules(decaysched.__path__):
        modules.append(importlib.import_module(f"decaysched.{info.name}"))
    return modules


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [calls, busy_ns, self_ns]
        self.rows = 0  # trial rows passed to kernels.count_positive_trials
        self.top_ns = 0
        self._stack: list[list[int]] = []  # child time of each open span
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._targets = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack, depth = self._stack, self._depth
        counts_rows = name == "kernels.count_positive_trials"
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stats[0] += 1
            if counts_rows:
                self.rows += len(args[0])
            frame = [0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                if depth[name] == 0:
                    stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.top_ns += elapsed

        traced.__wrapped__ = fn
        return traced

    def _find_targets(self):
        """(name, original) for every function to wrap, plus the modules."""
        modules = package_modules()
        targets = {}
        for module in modules:
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__.startswith("decaysched"):
                    targets[id(obj)] = (f"{_layer(obj.__module__)}.{obj.__name__}", obj)
        analysis = next((m for m in modules if m.__name__ == "decaysched.analysis"), None)
        if analysis is not None and callable(getattr(analysis, "quad", None)):
            targets[id(analysis.quad)] = ("analysis.quad", analysis.quad)
        return modules, list(targets.values())

    def install(self) -> None:
        if self._targets is None:
            self._targets = self._find_targets()
        modules, targets = self._targets
        by_id = {id(fn): (name, fn) for name, fn in targets}
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in targets}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in by_id and by_id[id(value)][1] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        for module in modules:
            cls = getattr(module, "ProbabilityVector", None)
            if inspect.isclass(cls) and "__post_init__" in vars(cls):
                original = vars(cls)["__post_init__"]
                self._patches.append((cls, "__post_init__", original))
                cls.__post_init__ = self._wrap("distribution.ProbabilityVector", original)
                break

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {"stats": self.stats, "rows": self.rows, "top_ns": self.top_ns}

    def merge(self, snap: dict) -> None:
        """Add a snapshot taken in another process (a traced CLI child)."""
        for name, values in snap["stats"].items():
            mine = self.stats.setdefault(name, [0, 0, 0])
            for i, v in enumerate(values):
                mine[i] += v
        self.rows += snap["rows"]
        self.top_ns += snap["top_ns"]
