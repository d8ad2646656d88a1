"""Per-layer tracing of a jetframes run, done entirely from outside the package.

The tracer rebinds public functions and methods of the ``jetframes`` modules to
timing wrappers, runs the workload, and puts every original object back.

Two kinds of probe are installed:

* **spans** at coarse boundaries (suites, builders, checks and the exact
  linear-algebra calls).  Each call records ``(id, name, start, end, parent)``
  and the tracer keeps a stack, so every layer's *self time* is the span's
  duration minus the time its child spans and kernel operations cover.
* **kernel counters** on the polynomial kernel (``Polynomial.__mul__`` and
  friends).  These run millions of times per workload, so they only aggregate
  calls, inclusive seconds and output term counts; the time of an outermost
  kernel call is charged to the ``algebra`` layer and subtracted from the span
  that made the call.

Names bound by ``from .algebra import ...`` are separate bindings in every
importing module, so each function is replaced wherever the *same object* is
bound, and class attributes are replaced under every alias (``__rmul__`` is
``__mul__``).  ``restore`` undoes all of it and ``leftover_wrappers`` proves it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("cli", "algebra", "jetspace", "wronskian", "frames", "analysis")
MODULES = ("algebra", "jetspace", "wronskian", "frames", "analysis", "cli")

# (metric prefix, module, attribute path).  Kernel counters: hot polynomial
# operations, aggregated only.  For the prefixes in TERMS_OUT the output term
# counts are summed into ``<prefix>.terms_out``.
KERNEL_PROBES = (
    ("algebra.mul", "algebra", "Polynomial.__mul__"),
    ("algebra.add", "algebra", "Polynomial.__add__"),
    ("algebra.diff", "algebra", "Polynomial.diff"),
    ("algebra.subs", "algebra", "Polynomial.subs"),
    ("algebra.exact_div", "algebra", "Polynomial.exact_div"),
    ("algebra.evaluate", "algebra", "Polynomial.evaluate"),
    ("algebra.vectorfield_apply", "algebra", "VectorField.apply"),
)
TERMS_OUT = {"algebra.mul"}

SPAN_PROBES = (
    ("algebra.determinant", "algebra", "determinant"),
    ("algebra.solve_linear_exact", "algebra", "solve_linear_exact"),
    ("algebra.rank_rational", "algebra", "rank_rational"),
    ("jetspace.total_derivative", "jetspace", "total_derivative"),
    ("jetspace.defining_equations_iterated", "jetspace", "defining_equations_iterated"),
    ("jetspace.defining_equations_partition_sum", "jetspace", "defining_equations_partition_sum"),
    ("jetspace.sample_vertical_jet", "jetspace", "sample_vertical_jet"),
    ("jetspace.jacobian_matrix_at", "jetspace", "jacobian_matrix_at"),
    ("wronskian.power_wronskian", "wronskian", "power_wronskian"),
    ("wronskian.cramer_coefficients", "wronskian", "cramer_coefficients"),
    ("wronskian.cramer_system_residuals", "wronskian", "cramer_system_residuals"),
    ("frames.solve_jet_field_coefficients", "frames", "solve_jet_field_coefficients"),
    ("frames.substitute_matrix", "frames", "JetFieldTable.substitute_matrix"),
    ("frames.enumerate_frame", "frames", "enumerate_frame"),
    ("analysis.verify_pole_table", "analysis", "verify_pole_table"),
    ("analysis.spanning_check", "analysis", "spanning_check"),
    ("analysis.invariance_check", "analysis", "invariance_check"),
    ("analysis.field_vector", "analysis", "field_vector"),
    ("analysis.pushforward_field", "analysis", "pushforward_field"),
    ("analysis.sample_for_variant", "analysis", "sample_for_variant"),
)

SUITE_NAMES = ("equations", "wronskian", "frames", "pole-orders", "span", "invariance", "appendix")

# Every per-layer metric a traced run reports, present even when its value is
# 0 on a workload.  Each comment names the end-to-end metric and workload the
# entry is expected to move.
PER_LAYER_METRICS = (
    # cli: where verify_s splits by suite, on every workload
    *(f"cli.suite.{s}.s" for s in SUITE_NAMES),
    # algebra, polynomial kernel
    "algebra.mul.calls", "algebra.mul.s", "algebra.mul.terms_out",  # verify_s, identities-45
    "algebra.add.calls", "algebra.add.s",
    "algebra.diff.calls", "algebra.diff.s",
    "algebra.subs.calls", "algebra.subs.s",  # points-23, build-34
    "algebra.exact_div.calls", "algebra.exact_div.s",  # build-34 (E0 divisibility)
    "algebra.evaluate.calls", "algebra.evaluate.s",  # points-23
    "algebra.vectorfield_apply.calls", "algebra.vectorfield_apply.s",  # build-34
    "algebra.max_terms",  # peak_rss_mb
    # algebra, exact linear algebra
    "algebra.determinant.calls", "algebra.determinant.s", "algebra.determinant.max_dim",  # build-34
    "algebra.solve_linear_exact.calls", "algebra.solve_linear_exact.s",
    "algebra.rank_rational.calls", "algebra.rank_rational.s",  # points-23
    # jetspace
    "jetspace.total_derivative.calls", "jetspace.total_derivative.s",  # identities-45
    "jetspace.defining_equations.s",
    "jetspace.sample_vertical_jet.calls", "jetspace.sample_vertical_jet.s",  # points-23
    "jetspace.jacobian_matrix_at.calls", "jetspace.jacobian_matrix_at.s",  # points-23
    # wronskian
    "wronskian.power_wronskian.s",
    "wronskian.cramer_coefficients.calls", "wronskian.cramer_coefficients.s",  # identities-45
    "wronskian.cramer_system_residuals.s",  # identities-45
    # frames
    "frames.solve_jet_field_coefficients.calls", "frames.solve_jet_field_coefficients.s",  # build-34
    "frames.substitute_matrix.calls", "frames.substitute_matrix.s",  # build-34, points-23
    "frames.enumerate_frame.calls", "frames.enumerate_frame.s",  # points-23
    # analysis
    "analysis.verify_pole_table.s",
    "analysis.spanning_check.s",
    "analysis.field_vector.calls", "analysis.field_vector.s",  # points-23
    "analysis.pushforward_field.calls", "analysis.pushforward_field.s",  # points-23
    "analysis.sample_accept_ratio",
    # self time of each layer: span time not covered by child spans/kernel calls
    *(f"{layer}.self_s" for layer in LAYERS),
    "trace.overhead_s",
)

_MARK = "__perfbench_wrapper__"


@dataclass
class Stat:
    calls: int = 0
    seconds: float = 0.0
    terms_out: int = 0
    depth: int = 0


@dataclass
class _Frame:
    span_id: int
    start: float
    parent: int
    covered: float = 0.0  # time of child spans and outermost kernel calls


@dataclass
class Tracer:
    """Installs probes into the imported ``jetframes`` package; not reentrant."""

    stats: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    layer_self: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    max_terms: int = 0
    max_det_dim: int = 0
    _stack: list = field(default_factory=list)
    _kernel_depth: int = 0
    _patches: list = field(default_factory=list)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        modules = {name: getattr(package, name) for name in MODULES}
        for name, mod, path in KERNEL_PROBES:
            self._patch(modules, mod, path, self._kernel_wrapper(name, name in TERMS_OUT))
        for name, mod, path in SPAN_PROBES:
            self._patch(modules, mod, path, lambda fn, name=name: self._span_wrapper(name, fn))
        suites = modules["cli"].SUITES
        for suite, fn in list(suites.items()):
            self._patches.append((suites, suite, fn, True))
            suites[suite] = self._span_wrapper(f"cli.suite.{suite}", fn)

    def _patch(self, modules: dict, mod: str, path: str, make) -> None:
        owner = modules[mod]
        *owner_path, attr = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapper = make(original)
        if owner_path:  # a method: rebind under every alias in the class
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original, False))
                    setattr(owner, key, wrapper)
            return
        for module in modules.values():  # a function: rebind in every importer
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original, False))
                    setattr(module, key, wrapper)

    def restore(self) -> list:
        """Put every original back; return the bindings that did not revert."""
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        bad = [
            f"{getattr(owner, '__name__', 'SUITES')}.{key}"
            for owner, key, original, is_item in self._patches
            if (owner[key] if is_item else getattr(owner, key)) is not original
        ]
        self._patches = []
        return bad

    # -- wrappers ------------------------------------------------------------

    def _kernel_wrapper(self, name: str, count_terms: bool):
        stat = self.stats.setdefault(name, Stat())
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                stat.calls += 1
                if stat.depth:
                    return fn(*args, **kwargs)
                outermost = not tracer._kernel_depth
                stat.depth = 1
                tracer._kernel_depth += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat.depth = 0
                    tracer._kernel_depth -= 1
                stat.seconds += dt
                if outermost:
                    tracer.layer_self["algebra"] += dt
                    if tracer._stack:
                        tracer._stack[-1].covered += dt
                terms = getattr(result, "terms", None)
                if terms is not None:
                    size = len(terms)
                    if count_terms:
                        stat.terms_out += size
                    if size > tracer.max_terms:
                        tracer.max_terms = size
                return result

            setattr(wrapper, _MARK, True)
            return wrapper

        return make

    def _span_wrapper(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        layer = name.split(".", 1)[0]
        tracer = self
        is_det = name == "algebra.determinant"

        def wrapper(*args, **kwargs):
            if is_det and args:
                tracer.max_det_dim = max(tracer.max_det_dim, len(args[0]))
            stack = tracer._stack
            parent = stack[-1].span_id if stack else -1
            frame = _Frame(len(tracer.spans), perf_counter(), parent)
            tracer.spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            stat.calls += 1
            stat.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat.depth -= 1
                duration = end - frame.start
                if not stat.depth:
                    stat.seconds += duration
                tracer.layer_self[layer] += duration - frame.covered
                if stack:
                    stack[-1].covered += duration
                tracer.spans[frame.span_id] = (frame.span_id, name, frame.start, end, parent)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Every name in PER_LAYER_METRICS except ``trace.overhead_s``, which
        needs an untraced run to compare against.

        A missing metric raises ``KeyError``; in a benchmark run the worker
        then exits non-zero and ``run.py`` counts the run as failed."""
        out = {}
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.seconds
            if name in TERMS_OUT:
                out[f"{name}.terms_out"] = stat.terms_out
        out["algebra.max_terms"] = self.max_terms
        out["algebra.determinant.max_dim"] = self.max_det_dim
        out["jetspace.defining_equations.s"] = (
            out["jetspace.defining_equations_iterated.s"]
            + out["jetspace.defining_equations_partition_sum.s"]
        )
        draws = out["jetspace.sample_vertical_jet.calls"]
        accepted = out["analysis.sample_for_variant.calls"]
        out["analysis.sample_accept_ratio"] = accepted / draws if draws else 0.0
        for layer, seconds in self.layer_self.items():
            out[f"{layer}.self_s"] = seconds
        return {k: out[k] for k in PER_LAYER_METRICS if k != "trace.overhead_s"}

    def suite_seconds(self) -> float:
        """Total duration of the top-level suite spans."""
        return sum(end - start for _, name, start, end, parent in self.spans
                   if parent == -1 and name.startswith("cli.suite."))


def leftover_wrappers(package) -> list:
    """Names in the package still bound to a tracing wrapper."""
    found = []
    for name in MODULES:
        module = getattr(package, name)
        owners = [(name, vars(module))]
        owners += [(f"{name}.{k}", vars(v)) for k, v in vars(module).items()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        if name == "cli":
            owners.append(("cli.SUITES", module.SUITES))
        for owner_name, namespace in owners:
            found += [f"{owner_name}.{k}" for k, v in namespace.items() if getattr(v, _MARK, False)]
    return found


def metric_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"
