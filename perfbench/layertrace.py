"""Outside-in layer tracing: wrap the package's layer functions from the benchmark.

Tracer.install() replaces module and class attributes of the `superflows`
modules in this process with wrappers that record one span per call (name,
start, end, parent) into flat in-memory arrays; uninstall() puts the
originals back.  No file of the package changes.  Self time of a span is its
duration minus the durations of its direct child spans; calls are exact
counts, so two traced runs of the same items give identical counts.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# metric prefix -> (module, class or None for a module function, attributes)
LAYERS = {
    "cyclotomic.pow": ("superflows.cyclotomic", "CycNum", ("__pow__",)),
    "cyclotomic.inverse": ("superflows.cyclotomic", "CycNum", ("inverse",)),
    "cyclotomic.mul": ("superflows.cyclotomic", "CycNum", ("__mul__", "__rmul__")),
    "cyclotomic.add": ("superflows.cyclotomic", "CycNum", ("__add__", "__radd__")),
    "cyclotomic.lift": ("superflows.cyclotomic", "CycNum", ("lift",)),
    "cyclotomic.multiplicative_order":
        ("superflows.cyclotomic", "CycNum", ("multiplicative_order",)),
    "matgroup.generate_group": ("superflows.matgroup", None, ("generate_group",)),
    "matgroup.has_minus_identity":
        ("superflows.matgroup", "FiniteMatrixGroup", ("has_minus_identity",)),
    "homog.conjugate": ("superflows.homog", "RatVF", ("conjugate",)),
    "homog.reynolds_average": ("superflows.homog", None, ("reynolds_average",)),
    "homog.eval_field": ("superflows.homog", "RatVF", ("eval_field",)),
    "engine.find_superflow": ("superflows.engine", None, ("find_superflow",)),
    "engine.invariant_space": ("superflows.engine", None, ("invariant_space",)),
    "flows.eval": ("superflows.flows", "ClosedFormFlow", ("eval",)),
    "flows.verify_translation": ("superflows.flows", None, ("verify_translation",)),
    "flows.verify_pde": ("superflows.flows", None, ("verify_pde",)),
    "flows.extract_vector_field": ("superflows.flows", None, ("extract_vector_field",)),
    "flows.integrate_trajectory": ("superflows.flows", None, ("integrate_trajectory",)),
    "flows.verify_orbit_ode": ("superflows.flows", None, ("verify_orbit_ode",)),
    "symmetry.check_flow_symmetry": ("superflows.symmetry", None, ("check_flow_symmetry",)),
    "symmetry.family_finite_order": ("superflows.symmetry", None, ("family_finite_order",)),
    "cli.main": ("superflows.cli", None, ("main",)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches = []  # (owner, attribute, original)
        self.counters: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, observe=None):
        nid = self._name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter
        flows_layer = name.startswith("flows.")

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, in the innermost flows function it leaves
                if flows_layer and not getattr(exc, "_flows_error_counted", False):
                    exc._flows_error_counted = True
                    self.counters["flows.errors"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, fn):
        """Call fn() inside a root span called `name` (one per benchmark item)."""
        return self._wrap(name, fn)()

    def _observe_invariant_space(self, fn):
        signature = inspect.signature(fn)

        def observe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            self.counters["engine.monomials_tested"] += 2 * (bound["lx"] + bound["ly"] + 3)
            self.counters["engine.basis_fields"] += len(result)

        return observe

    def _observe_closure(self, args, kwargs, result):
        self.counters["matgroup.closure_elements"] += result.order

    def install(self):
        owners = {module: importlib.import_module(module) for module, _, _ in LAYERS.values()}
        modules = [mod for key, mod in sys.modules.items()
                   if key == "superflows" or key.startswith("superflows.")]
        for name, (module, cls, attrs) in LAYERS.items():
            owner = owners[module]
            if cls is not None:
                owner = getattr(owner, cls)
                for attr in attrs:
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(name, original))
                continue
            (attr,) = attrs
            original = getattr(owner, attr)
            observe = None
            if name == "engine.invariant_space":
                observe = self._observe_invariant_space(original)
            elif name == "matgroup.generate_group":
                observe = self._observe_closure
            wrapper = self._wrap(name, original, observe)
            # a function imported by name into other modules is bound there too
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(calls, self seconds) per span name."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
            name = self.names[self.name[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
        return calls, self_s

    def layer_metrics(self) -> dict:
        calls, self_s = self.self_times()
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        ops = calls.get("cyclotomic.mul", 0) + calls.get("cyclotomic.add", 0)
        out["cyclotomic.lift_per_op"] = calls.get("cyclotomic.lift", 0) / ops if ops else 0.0
        out["matgroup.closure_elements"] = self.counters["matgroup.closure_elements"]
        tested = self.counters["engine.monomials_tested"]
        out["engine.monomials_tested"] = tested
        out["engine.survival_ratio"] = (
            self.counters["engine.basis_fields"] / tested if tested else 0.0)
        out["flows.errors"] = self.counters["flows.errors"]
        return out

    def write(self, path):
        """All spans as gzip TSV: name, start and end in microseconds, parent index."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("name\tstart_us\tend_us\tparent\n")
            step = 50_000
            for lo in range(0, len(self.name), step):
                handle.write("".join(
                    f"{self.names[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\n"
                    for i in range(lo, min(lo + step, len(self.name)))
                ))
