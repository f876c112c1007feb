"""Per-layer tracing of the qcrb_lab package from outside.

The tracer replaces the package's public functions at every name their
callers bind (``from .fisher import sld`` makes ``cli.sld``,
``optimality.sld`` and ``fisher.sld`` three bindings of one function), two
methods on their classes, and ``numpy.linalg.eigh``/``eigvalsh``. Each
wrapped call is a span; the tracer keeps, per span name, the call count, the
total span time and the self time (span minus the spans it caused).
Aggregates are reset for each traced CLI invocation; single spans are not
stored, because one ``simulate`` command makes about 10^5 of them.
"""

from __future__ import annotations

import functools
import importlib
import numbers
import sys
import threading
import types
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "qcrb_lab"

# (module, function): wrapped wherever the package binds the function.
TRACED_FUNCTIONS = (
    ("modelspec", "load_model_spec"),
    ("core", "collective_spin"),
    ("core", "matrix_sqrt_psd"),
    ("fisher", "sld"),
    ("fisher", "state_derivative"),
    ("fisher", "second_state_derivative"),
    ("fisher", "outcome_distribution"),
    ("fisher", "cfi"),
    ("optimality", "error_propagation"),
    ("optimality", "check_observable_optimality"),
    ("optimality", "observable_expectations"),
    ("simulate", "sample_shots"),
    ("simulate", "estimate_phi_sample_mean"),
    ("simulate", "estimate_phi_mle"),
    ("_concurrency", "parallel_map"),
)
# (module, class, method, span name): wrapped on the class.
TRACED_METHODS = (
    ("core", "Povm", "__init__", "core.Povm"),
    ("fisher", "ParametricModel", "density", "fisher.density"),
)
# numpy.linalg functions the package calls through ``np.linalg``.
TRACED_NUMPY = (("eigh", "core.eigh"), ("eigvalsh", "core.eigvalsh"))
# Spans whose second positional argument is the phase; calls are also
# counted per phase so that work per grid row can be reported.
PHASE_SPANS = ("fisher.sld", "fisher.density")
PARALLEL_SPAN = "_concurrency.parallel_map"
# Span around a whole CLI invocation; its self time is reported as cli.self_s.
ROOT_SPAN = "cli"


def _module(name: str):
    try:
        return importlib.import_module(f"{PACKAGE}.{name}")
    except ModuleNotFoundError:
        return types.ModuleType(name)


class Tracer:
    """Span aggregates for one invocation at a time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.phase_calls: defaultdict = defaultdict(Counter)
        self.parallel_threads: set[int] = set()
        self._parallel_depth = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        """Run ``fn`` as a span named ``name``."""
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        parallel = name == PARALLEL_SPAN
        with self._lock:
            if self._parallel_depth:
                self.parallel_threads.add(threading.get_ident())
            if parallel:
                self._parallel_depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            with self._lock:
                if parallel:
                    self._parallel_depth -= 1
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[0]
                if name in PHASE_SPANS:
                    phi = args[1] if len(args) > 1 else kwargs.get("phi")
                    if isinstance(phi, numbers.Real):
                        self.phase_calls[name][float(phi)] += 1

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced function at all of its bindings in the package.

        A function or method the package no longer defines is skipped, so
        the benchmark keeps running across refactors; its metrics read 0.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, fn_name in TRACED_FUNCTIONS:
            original = vars(_module(module_name)).get(fn_name)
            if original is None:
                continue
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for module_name, cls_name, method, span in TRACED_METHODS:
            cls = vars(_module(module_name)).get(cls_name)
            if isinstance(cls, type) and method in vars(cls):
                self._patch(cls, method, self.wrap(span, vars(cls)[method]))
        for fn_name, span in TRACED_NUMPY:
            self._patch(np.linalg, fn_name, self.wrap(span, getattr(np.linalg, fn_name)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
