"""In-memory span tracer for cvbound, installed from outside the package.

``Tracer.install`` wraps the public functions of the six cvbound modules and
``GaussianState.__init__``.  A module that did ``from .states import tensor``
holds its own binding of ``tensor``, so every binding of a wrapped function in
every loaded ``cvbound`` module is replaced, and a call is caught whichever
import site it goes through.  ``uninstall`` puts the originals back.

Each call records a span (op id, span id, parent span id, name, start, end),
its self time (duration minus the time its direct child spans cover) and the
(parent, child) edge it sits on.  Everything stays in memory until
``summary()`` is written out at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("cli", "states", "stabilizer", "factory", "separability", "protocols")
# the sweep's per-point function is private but is the span the sweep metrics need
PRIVATE_SPANS = {"cli": ("_sweep_row",)}
MAX_SPANS = 50_000


def _eig_hook(counters: dict, args) -> None:
    # symplectic_eigenvalues runs eigvalsh(cov) and eigvals(Omega cov): two
    # dense eigenproblems of the covariance dimension d, about d^3 each
    d = len(args[0])
    counters["eig.dim3_sum"] = counters.get("eig.dim3_sum", 0) + 2 * d**3
    counters["eig.max_dim"] = max(counters.get("eig.max_dim", 0), d)


HOOKS = {"states.symplectic_eigenvalues": _eig_hook}


def public_functions(module) -> dict:
    """Functions defined in ``module`` that it exports (``__all__`` or no underscore)."""
    layer = module.__name__.rsplit(".", 1)[-1]
    names = list(getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")])
    names += PRIVATE_SPANS.get(layer, ())
    out = {}
    for n in names:
        obj = getattr(module, n, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[f"{layer}.{n}"] = obj
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.edges: dict[tuple[str, str], list] = {}  # (parent, child) -> [calls, total_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.op_id = 0
        self._stack: list[list] = []
        self._next_span = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self.counters, args)
            parent = stack[-1] if stack else None
            span_id = self._next_span
            self._next_span += 1
            frame = [name, time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[2]
                parent_id = None
                if parent is not None:
                    parent[2] += dur
                    parent_id = parent[3]
                    edge = self.edges.setdefault((parent[0], name), [0, 0.0])
                    edge[0] += 1
                    edge[1] += dur
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((self.op_id, span_id, parent_id, name, frame[1], end))
                else:
                    self.dropped_spans += 1

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for n, m in list(sys.modules.items()) if n == "cvbound" or n.startswith("cvbound.")]
        wrappers = {}
        for layer in LAYERS:
            for name, fn in public_functions(sys.modules[f"cvbound.{layer}"]).items():
                wrappers[fn] = self._wrap(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
                    self._patches.append((mod, attr, val))
        cls = sys.modules["cvbound.states"].GaussianState
        init = cls.__dict__["__init__"]
        setattr(cls, "__init__", self._wrap("states.GaussianState", init))
        self._patches.append((cls, "__init__", init))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run a block with the originals in place (for work the tracer cannot follow)."""
        installed = bool(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    def summary(self) -> dict:
        return {
            "stats": self.stats,
            "edges": [[p, c, n, t] for (p, c), (n, t) in self.edges.items()],
            "counters": self.counters,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }

    def merge(self, summary: dict) -> None:
        """Fold in a summary written by a traced child process."""
        for name, (calls, total, self_s) in summary["stats"].items():
            st = self.stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for p, c, calls, total in summary["edges"]:
            edge = self.edges.setdefault((p, c), [0, 0.0])
            edge[0] += calls
            edge[1] += total
        for key, val in summary["counters"].items():
            if key.endswith("max_dim"):
                self.counters[key] = max(self.counters.get(key, 0), val)
            else:
                self.counters[key] = self.counters.get(key, 0) + val
        room = MAX_SPANS - len(self.spans)
        spans = [(self.op_id, *s[1:]) for s in summary["spans"]]
        self.spans.extend(spans[:room])
        self.dropped_spans += summary["dropped_spans"] + max(0, len(spans) - room)
