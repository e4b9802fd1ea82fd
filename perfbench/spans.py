"""Per-layer span tracer that instruments wedgecap from outside the library.

`Tracer.installed()` replaces the public functions of each layer module
with timing wrappers, both on the defining module and on every
``from ... import`` binding of them in the package, and restores the
originals on exit.  The quadrature engines also wrap the integrand they
receive, so refinement bookkeeping (``quad.self_s``) and integrand
evaluation (``integrand:<layer>``) are timed apart.  Spans and counters
are kept in memory; `Tracer.counters()` and `Tracer.timings()` fold
them into the per-layer metrics that BENCHMARK.json lists.

A span's self time is its duration minus the time covered by its child
spans.  Counters (calls, nodes, rows x nodes, ...) depend only on the
inputs, so two traced passes over the same inputs must agree exactly.
"""

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# wedgecap module -> layer name used in metric names
LAYERS = {"_quad": "quad", "kernels": "kernels", "besov": "besov",
          "spectral": "spectral", "capacity": "capacity",
          "experiments": "experiments", "classify": "classify",
          "geometry": "geometry", "cli": "cli"}
QUAD_ENGINES = ("integrate_rows", "integrate_partials")
HEATLIFT_METHODS = ("__init__", "w", "wt", "wtt")
CAPACITY_SOLVERS = ("bessel_capacity", "rho_capacity")

# counters that must repeat exactly across traced passes over one input set
DETERMINISTIC = ("quad.calls", "quad.integrand_calls", "quad.nodes",
                 "quad.rounds", "quad.row_cells", "quad.stalls",
                 "kernels.F.calls", "kernels.F.widenings",
                 "kernels.atom_cells", "kernels.atom_cells.max_op",
                 "kernels.aggregate.calls", "kernels.ladder.widenings",
                 "besov.proxy.calls", "spectral.gamma.calls",
                 "spectral.sl.calls", "capacity.bessel.calls",
                 "capacity.dual_iterations", "experiments.heatlift.evals")


class _Frame:
    __slots__ = ("name", "layer", "start", "child", "quad_children",
                 "n_atoms")

    def __init__(self, name, layer):
        self.name = name
        self.layer = layer
        self.child = 0.0
        self.quad_children = 0
        self.n_atoms = 0
        self.start = time.perf_counter()


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.stack = []
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)      # span name -> self time
        self.group_s = defaultdict(float)     # group -> outermost-span time
        self.calls = Counter()                # span name -> calls
        self.count = Counter()                # named work counters
        self._group_depth = Counter()
        self._op_cells = 0

    def begin_op(self):
        self._op_cells = self.count["kernels.atom_cells"]

    def end_op(self):
        cells = self.count["kernels.atom_cells"] - self._op_cells
        if cells > self.count["kernels.atom_cells.max_op"]:
            self.count["kernels.atom_cells.max_op"] = cells

    # -- spans ------------------------------------------------------------

    def _enter(self, name, layer):
        frame = _Frame(name, layer)
        self.stack.append(frame)
        group = _group_of(name)
        if group:
            self._group_depth[group] += 1
        return frame

    def _exit(self, frame):
        dur = time.perf_counter() - frame.start
        self.stack.pop()
        if self.stack:
            self.stack[-1].child += dur
        self.self_s[frame.name] += dur - frame.child
        self.calls[frame.name] += 1
        group = _group_of(frame.name)
        if group:
            self._group_depth[group] -= 1
            if self._group_depth[group] == 0:
                self.group_s[group] += dur
        if frame.name == "kernels.F_nu_m":
            self.count["kernels.F.widenings"] += max(0, frame.quad_children - 1)
        elif frame.name == "kernels.reduced_I_ladder":
            self.count["kernels.ladder.widenings"] += max(0, frame.quad_children - 1)

    def _supplier(self):
        for frame in reversed(self.stack):
            if frame.layer != "quad":
                return frame.layer
        return "bench"

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, layer, name):
        span = "%s.%s" % (layer, name)
        if layer == "quad" and name in QUAD_ENGINES:
            return self._wrap_quad(fn, span)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(span, layer)
            if span == "kernels.F_nu_m":
                mu = kwargs["mu"] if "mu" in kwargs else args[1]
                frame.n_atoms = mu.n_atoms
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if name in CAPACITY_SOLVERS:
                tracer.count["capacity.dual_iterations"] += int(out.iterations)
            return out

        return wrapper

    def _wrap_quad(self, fn, span):
        tracer = self
        stall_type = importlib.import_module(
            self.package.__name__ + ".errors").AccuracyError

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            atoms = 0
            if parent is not None:
                parent.quad_children += 1
                if parent.name == "kernels.F_nu_m":
                    atoms = parent.n_atoms
            supplier = tracer._supplier()
            integrand_span = "integrand:" + supplier
            evals = [0]

            def integrand(nodes):
                frame = tracer._enter(integrand_span, supplier)
                try:
                    vals = f(nodes)
                finally:
                    tracer._exit(frame)
                n = len(nodes)
                shape = np.shape(vals)
                cells = (shape[0] if len(shape) == 2 else 1) * n
                evals[0] += 1
                tracer.count["quad.integrand_calls"] += 1
                tracer.count["quad.nodes"] += n
                tracer.count["quad.row_cells"] += cells
                tracer.count["kernels.atom_cells"] += cells * atoms
                return vals

            tracer.count["quad.calls"] += 1
            frame = tracer._enter(span, "quad")
            try:
                return fn(integrand, *args, **kwargs)
            except stall_type as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    tracer.count["quad.stalls"] += 1
                raise
            finally:
                tracer._exit(frame)
                tracer.count["quad.rounds"] += max(0, evals[0] - 1)

        return wrapper

    def _wrap_method(self, cls, name):
        fn = cls.__dict__[name]
        span = "experiments.%s.%s" % (cls.__name__, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(span, "experiments")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    # -- install / restore ------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions for the duration of the block."""
        pkg = self.package.__name__
        wrappers = {}      # id(original) -> (original, wrapper)
        for modname, layer in LAYERS.items():
            mod = importlib.import_module(pkg + "." + modname)
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_own_function(obj, mod):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer, attr))
        restore = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == pkg or modname.startswith(pkg + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        heatlift = importlib.import_module(pkg + ".experiments").HeatLift
        for name in HEATLIFT_METHODS:
            restore.append((heatlift, name, heatlift.__dict__[name]))
            setattr(heatlift, name, self._wrap_method(heatlift, name))
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    # -- metrics ----------------------------------------------------------

    def counters(self):
        """Deterministic work counters of the current pass."""
        c = dict.fromkeys(DETERMINISTIC, 0)
        c.update((k, v) for k, v in self.count.items() if k in c)
        c["kernels.F.calls"] = self.calls["kernels.F_nu_m"]
        c["kernels.aggregate.calls"] = sum(self.calls["kernels." + n] for n in
                                           ("M_nu_s", "reduced_I", "reduced_I_ladder"))
        c["besov.proxy.calls"] = self.calls["besov.besov_neg_proxy"]
        c["spectral.gamma.calls"] = self.calls["spectral.gamma_first_eigenvalue"]
        c["spectral.sl.calls"] = (self.calls["spectral.sl_eigen_1d"]
                                  + self.calls["spectral.sl_eigen_fd"])
        c["capacity.bessel.calls"] = self.calls["capacity.bessel_capacity"]
        c["experiments.heatlift.evals"] = sum(
            self.calls["experiments.HeatLift." + n] for n in ("w", "wt", "wtt"))
        return c

    def timings(self):
        """Per-layer busy times (seconds) of the current pass."""
        def self_of(prefix):
            return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

        def self_named(layer, *names):
            return sum(self.self_s["%s.%s" % (layer, n)] for n in names)

        return {
            "quad.self_s": self_of("quad."),
            "kernels.integrand_s": self.self_s["integrand:kernels"],
            "kernels.aggregate.self_s": self_named(
                "kernels", "M_nu_s", "reduced_I", "reduced_I_ladder"),
            "besov.proxy.self_s": self.self_s["besov.besov_neg_proxy"],
            "spectral.sl.self_s": self_named("spectral", "sl_eigen_1d",
                                             "sl_eigen_fd"),
            "capacity.bessel.self_s": self.self_s["capacity.bessel_capacity"],
            "capacity.kernel_radial.self_s":
                self.self_s["capacity.bessel_kernel_radial"],
            "capacity.integrand_s": self.self_s["integrand:capacity"],
            "experiments.heatlift.init_s": self.group_s["heatlift.init"],
            "experiments.heatlift.eval_s": self.group_s["heatlift.eval"],
            "experiments.self_s": self_of("experiments."),
            "classify.self_s": self_of("classify."),
            "geometry.parse_s": self.group_s["geometry.parse"],
            "geometry.dumps_s": self.group_s["geometry.dumps"],
            "cli.self_s": self_of("cli."),
        }


def _is_own_function(obj, mod):
    is_function = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
    return is_function and getattr(obj, "__module__", None) == mod.__name__


def _group_of(name):
    """Groups whose time counts nested spans of the same group once."""
    if name.startswith("geometry.") and name.endswith("_from_dict"):
        return "geometry.parse"
    if name == "geometry.dumps":
        return "geometry.dumps"
    if name == "experiments.HeatLift.__init__":
        return "heatlift.init"
    if name in ("experiments.HeatLift.w", "experiments.HeatLift.wt",
                "experiments.HeatLift.wtt"):
        return "heatlift.eval"
    return None
