"""Outside-in span tracing for the benchmark's traced run.

`Tracer.install` wraps, from outside the library, every public function,
public method and hand-written constructor of each `susylattice` module, and
a fixed set of numpy/scipy kernels as the library sees them.  Nothing under
`src/` changes; `Tracer.uninstall` restores every patched attribute.

Spans are kept in memory as (id, name, start, end, parent, dim, nbytes) and
written out by the caller when the run ends.  A span's parent is the span
that was open in the calling context when it started; thread-pool tasks
inherit the context of the code that submitted them, so work the CLI hands
to its `--jobs` pool is attributed to the caller that waits for it.
"""

import concurrent.futures
import contextlib
import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import math
import pkgutil
import time
from collections import defaultdict

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# (owner module, attribute, span name, takes a dense array).  A kernel is
# patched on its owner and wherever a susylattice module imported it by name.
KERNELS = (
    (np.linalg, "eigh", "kernel.eigh", True),
    (np.linalg, "eigvalsh", "kernel.eigvalsh", True),
    (np.linalg, "svd", "kernel.svd", True),
    (np.linalg, "norm", "kernel.norm2", True),
    (scipy.linalg, "eigh", "kernel.eigh", True),
    (scipy.linalg, "eig_banded", "kernel.eig_banded", True),
    (scipy.linalg, "expm", "kernel.expm", True),
    (scipy.sparse.linalg, "expm_multiply", "kernel.expm_multiply", False),
    (scipy.sparse.linalg, "eigsh", "kernel.eigsh", False),
    (scipy.sparse.linalg, "svds", "kernel.svds", False),
)

# Outermost calls of `models.build_*` feed models.build.useful_ratio.
BUILDER_LAYER, BUILDER_PREFIX = "models", "build_"

ID, NAME, START, END, PARENT, DIM, NBYTES = range(7)


class _ContextExecutor(concurrent.futures.ThreadPoolExecutor):
    """ThreadPoolExecutor whose tasks run in a copy of the submitter's
    context, so spans opened by a task have the submitting span as parent."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args,
                              **kwargs)


class Tracer:
    def __init__(self):
        self.spans = []
        self.builds = []
        self._ids = itertools.count()
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._in_builder = contextvars.ContextVar("bench_builder",
                                                  default=False)
        self._patches = []

    # ------------------------------------------------------------ spans

    def _open(self, name, dim=0, nbytes=0):
        parent = self._current.get()
        rec = [next(self._ids), name, time.perf_counter(), None,
               None if parent is None else parent[ID], dim, nbytes]
        self.spans.append(rec)
        return rec, self._current.set(rec)

    def _close(self, rec, token):
        rec[END] = time.perf_counter()
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec, token = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec, token)

    def wrap(self, fn, name, dense=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            dim = nbytes = 0
            if args and hasattr(args[0], "shape"):
                dim = max(args[0].shape, default=0)
                if dense and isinstance(args[0], np.ndarray):
                    nbytes = args[0].nbytes
            rec, token = tracer._open(name, dim, nbytes)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec, token)

        return traced

    def _wrap_norm(self, norm):
        traced = self.wrap(norm, "kernel.norm2", dense=True)

        # Only the spectral norm of a matrix is a dense kernel (an SVD);
        # vector and Frobenius norms pass straight through, unrecorded.
        @functools.wraps(norm)
        def dispatch(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return traced(x, ord, *args, **kwargs)
            return norm(x, ord, *args, **kwargs)

        return dispatch

    def _wrap_builder(self, fn, name):
        traced = self.wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._in_builder.get():
                return traced(*args, **kwargs)
            tracer.builds.append((name, repr(args),
                                  repr(sorted(kwargs.items()))))
            token = tracer._in_builder.set(True)
            try:
                return traced(*args, **kwargs)
            finally:
                tracer._in_builder.reset(token)

        return counted

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's layers and the dense/sparse kernels."""
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)]
        replace = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    self._wrap_class(obj, name)
                elif callable(obj):
                    builder = (layer == BUILDER_LAYER
                               and attr.startswith(BUILDER_PREFIX))
                    wrap = self._wrap_builder if builder else self.wrap
                    replace[id(obj)] = (obj, wrap(obj, name))
        for owner, attr, name, dense in KERNELS:
            original = getattr(owner, attr)
            wrapped = (self._wrap_norm(original) if attr == "norm"
                       else self.wrap(original, name, dense))
            replace[id(original)] = (original, wrapped)
            self._patch(owner, attr, wrapped)
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
                elif obj is concurrent.futures.ThreadPoolExecutor:
                    self._patch(module, attr, _ContextExecutor)
        return self

    def _wrap_class(self, cls, name):
        if issubclass(cls, BaseException):
            return
        own = vars(cls)
        if "__init__" in own and not dataclasses.is_dataclass(cls):
            self._patch(cls, "__init__", self.wrap(own["__init__"], name))
        for attr, obj in list(own.items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(cls, attr, self.wrap(obj, f"{name}.{attr}"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ export

    def export(self, run_id):
        return [{"id": s[ID], "name": s[NAME], "start": s[START],
                 "end": s[END], "parent": s[PARENT], "dim": s[DIM],
                 "nbytes": s[NBYTES], "run": run_id} for s in self.spans]


def _union_length(intervals):
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """{span id: duration minus the part of it that its children cover}.

    Children may overlap each other (pool tasks) or outlive their parent;
    the union of their intervals, clipped to the parent, is subtracted.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        clipped = [(max(a, lo), min(b, hi)) for a, b in children[s["id"]]
                   if min(b, hi) > max(a, lo)]
        out[s["id"]] = (hi - lo) - _union_length(clipped)
    return out


def layer_totals(spans):
    """{span name: {"s": self seconds, "calls", "max_dim", "nbytes"}}."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: {"s": 0.0, "calls": 0, "max_dim": 0,
                                  "nbytes": 0})
    for s in spans:
        t = totals[s["name"]]
        t["s"] += selfs[s["id"]]
        t["calls"] += 1
        t["max_dim"] = max(t["max_dim"], s["dim"])
        t["nbytes"] += s["nbytes"]
    return dict(totals)
