"""Spans and counts recorded around calls into perronkit's modules.

The tracer patches module attributes for the duration of one traced call and
restores every one of them afterwards.  It wraps:

* the public functions of ``apps``, ``perron``, ``scaling``, ``rcdd`` and
  ``sparse`` (their ``__all__``) and ``cli.main``, at every place a perronkit
  module holds a reference to them, so names one module imports from another
  (``perron.mmatrix_scale``, ``apps.compute_perron``, ...) are covered too;
* the private seams that carry the per-layer counts: ``_halving_scan``,
  ``_m_decide_scaled``, the ``_PhaseSolver`` class and
  ``LinearOperator.apply``;
* the two factor calls, ``scipy.sparse.linalg.splu`` and
  ``scipy.linalg.lu_factor``, whose time is credited to the layer whose span
  is open.

A name a refactor removed is reported as absent; the metrics it feeds read
zero and are listed as not applicable.  A span's layer is the module that
defines the function, and an operator's ``apply`` is credited to the module
whose code the operator runs.  Self time is a span's duration minus the
durations of its child spans; factor calls are not children, their time stays
in the enclosing layer.  Spans are kept in memory and written out by the
caller.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict

import scipy.linalg
import scipy.sparse.linalg

LAYERS = ("apps", "cli", "perron", "scaling", "rcdd", "sparse")
SPARSE_CHECKS = frozenset(
    {"is_irreducible", "check_rcdd", "check_sdd", "induced_norms", "apply_scaling"}
)
SPARSE_LOADS = frozenset({"load_matrix", "load_vector"})
SOLVER_BUILDS = frozenset({"build_rcdd_solver", "build_sdd_solver"})

# names whose absence the run reports (module, attribute)
SEAMS = (
    ("perron", "_halving_scan"),
    ("perron", "mmatrix_scale"),
    ("perron", "find_perron_value"),
    ("perron", "_m_decide_scaled"),
    ("apps", "compute_perron"),
    ("apps", "certify_spectral_bound"),
    ("apps", "solve_m"),
    ("scaling", "_halving_scan"),
    ("scaling", "_PhaseSolver"),
    ("scaling", "build_rcdd_solver"),
    ("scaling", "build_sdd_solver"),
    ("scaling", "prec_richardson"),
    ("rcdd", "LinearOperator"),
    ("cli", "main"),
)

# metric name -> (unit, how ops combine: "mean" per op or "max")
PER_LAYER = {
    "perron.self_s": ("s/op", "mean"),
    "perron.k_rounds": ("count/op", "mean"),
    "perron.bisection_steps": ("count/op", "mean"),
    "perron.decisions": ("count/op", "mean"),
    "perron.cw_width_rel_max": ("ratio", "max"),
    "perron.residual_over_threshold_max": ("ratio", "max"),
    "scaling.self_s": ("s/op", "mean"),
    "scaling.scans": ("count/op", "mean"),
    "scaling.phases": ("count/op", "mean"),
    "scaling.inner_iters": ("count/op", "mean"),
    "scaling.matvec_flops_computed": ("flop/op", "mean"),
    "scaling.factor_count": ("count/op", "mean"),
    "scaling.splu_count": ("count/op", "mean"),
    "scaling.factor_s": ("s/op", "mean"),
    "scaling.fill_ratio_max": ("ratio", "max"),
    "scaling.factor_nnz_total": ("count/op", "mean"),
    "scaling.richardson_iters": ("count/op", "mean"),
    "rcdd.self_s": ("s/op", "mean"),
    "rcdd.builds": ("count/op", "mean"),
    "rcdd.build_s": ("s/op", "mean"),
    "rcdd.factor_count": ("count/op", "mean"),
    "rcdd.splu_count": ("count/op", "mean"),
    "rcdd.factor_s": ("s/op", "mean"),
    "rcdd.fill_ratio_max": ("ratio", "max"),
    "rcdd.applies": ("count/op", "mean"),
    "rcdd.apply_s": ("s/op", "mean"),
    "rcdd.backend_iters": ("count/op", "mean"),
    "rcdd.residual_max": ("ratio", "max"),
    "sparse.self_s": ("s/op", "mean"),
    "sparse.check_s": ("s/op", "mean"),
    "sparse.load_s": ("s/op", "mean"),
    "sparse.load_bytes": ("B/op", "mean"),
    "apps.self_s": ("s/op", "mean"),
    "apps.perron_calls": ("count/op", "mean"),
    "apps.certify_refinements": ("count/op", "mean"),
    "apps.gram_nnz": ("count/op", "mean"),
    "apps.product_nnz": ("count/op", "mean"),
    "cli.self_s": ("s/op", "mean"),
    "cli.report_bytes": ("B/op", "mean"),
    "trace.unattributed_s": ("s/op", "mean"),
}
TIME_METRICS = frozenset(name for name, (unit, _) in PER_LAYER.items() if unit == "s/op")
# the integer counts that must repeat exactly for the same code and seed
EXACT_COUNTS = (
    "perron.k_rounds",
    "perron.bisection_steps",
    "perron.decisions",
    "scaling.scans",
    "scaling.phases",
    "scaling.inner_iters",
    "scaling.factor_count",
    "scaling.splu_count",
    "scaling.factor_nnz_total",
    "scaling.richardson_iters",
    "rcdd.builds",
    "rcdd.factor_count",
    "rcdd.splu_count",
    "rcdd.applies",
    "rcdd.backend_iters",
)


def _layer_of(module_name: str | None) -> str | None:
    if not module_name or not module_name.startswith("perronkit."):
        return None
    layer = module_name.split(".", 2)[1]
    return layer if layer in LAYERS else None


class _Frame:
    __slots__ = ("index", "layer", "name", "t0", "child", "entries")

    def __init__(self, index, layer, name, t0):
        self.index = index
        self.layer = layer
        self.name = name
        self.t0 = t0
        self.child = 0.0
        self.entries = None


class Tracer:
    """Collects spans and per-op counts while installed."""

    def __init__(self):
        self.spans = []  # [layer, name, t0, t1, parent index]
        self.absent = []
        self._stack = []
        self._restore = []
        self._op = None
        self._op_t0 = 0.0
        self._top = 0.0
        self._installed = False

    # -- installation ------------------------------------------------

    def _perronkit_modules(self):
        return [m for name, m in sys.modules.items() if name == "perronkit" or name.startswith("perronkit.")]

    def _replace_everywhere(self, original, replacement):
        for module in self._perronkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Patch every seam; names that do not exist are recorded in
        ``absent``.  Pair with :meth:`uninstall`."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._installed = True
        modules = {layer: sys.modules.get(f"perronkit.{layer}") for layer in LAYERS}
        self.absent = [
            f"{mod}.{attr}"
            for mod, attr in SEAMS
            if modules.get(mod) is None or not hasattr(modules[mod], attr)
        ]
        targets = {}
        for layer, module in modules.items():
            if module is None:
                continue
            names = list(getattr(module, "__all__", ()))
            names += {"scaling": ["_halving_scan"], "perron": ["_m_decide_scaled"], "cli": ["main"]}.get(layer, [])
            for name in names:
                fn = getattr(module, name, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[fn] = self._wrap(fn, layer, name)
        for fn, wrapper in targets.items():
            self._replace_everywhere(fn, wrapper)

        scaling = modules.get("scaling")
        phase_solver = getattr(scaling, "_PhaseSolver", None)
        if inspect.isclass(phase_solver):
            self._replace_everywhere(phase_solver, self._traced_phase_solver(phase_solver))

        rcdd = modules.get("rcdd")
        operator = getattr(rcdd, "LinearOperator", None)
        if inspect.isclass(operator) and hasattr(operator, "apply"):
            original = operator.apply
            wrapped = self._wrap_apply(original)
            self._patch(operator, "apply", wrapped)
            if getattr(operator, "__call__", None) is original:
                self._patch(operator, "__call__", wrapped)

        self._patch(scipy.sparse.linalg, "splu", self._wrap_factor(scipy.sparse.linalg.splu, sparse=True))
        self._patch(scipy.linalg, "lu_factor", self._wrap_factor(scipy.linalg.lu_factor, sparse=False))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._installed = False

    # -- per-op bookkeeping -------------------------------------------

    @staticmethod
    def exact_counts(values: dict) -> str:
        """The op's integer counts that must repeat exactly for the same code
        and seed, as a comparable string."""
        return repr([round(values.get(name, 0.0)) for name in EXACT_COUNTS])

    def begin_op(self):
        self._op = defaultdict(float)
        self._stack = []
        self._top = 0.0
        self._op_t0 = time.perf_counter()

    def end_op(self) -> dict:
        """Per-layer values of the op just run, keyed by metric name; maxima
        that saw no observation are absent from the dict."""
        elapsed = time.perf_counter() - self._op_t0
        values = self._op
        values["trace.unattributed_s"] = max(0.0, elapsed - self._top)
        self._op = None
        return dict(values)

    def _count(self, key, amount=1.0):
        self._op[key] += amount

    def _max(self, key, value):
        if value is not None and math.isfinite(value):
            self._op[key] = max(self._op.get(key, -math.inf), value)

    def _open(self, layer, name) -> _Frame:
        index = len(self.spans)
        parent = self._stack[-1].index if self._stack else -1
        frame = _Frame(index, layer, name, time.perf_counter())
        self.spans.append([layer, name, frame.t0, None, parent])
        self._stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> float:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[frame.index][3] = t1
        duration = t1 - frame.t0
        self._count(f"{frame.layer}.self_s", duration - frame.child)
        if frame.layer == "sparse" and frame.name in SPARSE_CHECKS:
            self._count("sparse.check_s", duration - frame.child)
        if self._stack:
            self._stack[-1].child += duration
        else:
            self._top += duration
        return duration

    def _inside(self, name) -> bool:
        return any(frame.name == name for frame in self._stack)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, layer, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer._before(layer, name, args)
            frame = tracer._open(layer, name)
            if name == "_halving_scan" and args:
                frame.entries = _stored_entries(args[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._close(frame)
            tracer._after(layer, name, args, result, duration)
            return result

        return wrapper

    def _before(self, layer, name, args):
        if name == "_halving_scan":
            self._count("scaling.scans")
        elif name == "_m_decide_scaled":
            self._count("perron.decisions")
        elif name in SOLVER_BUILDS:
            self._count("rcdd.builds")
        elif name == "compute_perron":
            if any(frame.layer == "apps" for frame in self._stack):
                self._count("apps.perron_calls")
            if self._inside("certify_spectral_bound"):
                self._count("apps.certify_refinements")
            if self._stack and self._stack[-1].name == "top_singular" and args:
                self._count("apps.gram_nnz", getattr(args[0], "nnz", 0))
        elif name in SPARSE_LOADS and args:
            try:
                self._count("sparse.load_bytes", os.path.getsize(args[0]))
            except (OSError, TypeError):
                pass

    def _after(self, layer, name, args, result, duration):
        if name in SOLVER_BUILDS:
            self._count("rcdd.build_s", duration)
        elif name in SPARSE_LOADS:
            self._count("sparse.load_s", duration)
        elif name == "find_perron_value":
            self._count("perron.bisection_steps", _report_iterations(result))
        elif name == "prec_richardson":
            self._count("scaling.richardson_iters", _report_iterations(result))
        elif name == "product_graph":
            self._count("apps.product_nnz", getattr(getattr(result, "matrix", None), "nnz", 0))
        elif name == "compute_perron":
            self._certificate(args, result)
        elif name == "main" and layer == "cli" and args:
            argv = list(args[0] or ())
            if "--output" in argv[:-1]:
                try:
                    self._count("cli.report_bytes", os.path.getsize(argv[argv.index("--output") + 1]))
                except OSError:
                    pass

    def _certificate(self, args, cert):
        k_final = getattr(cert, "k_final", None)
        if not k_final or len(args) < 2:
            return
        delta = float(args[1])
        self._count("perron.k_rounds", round(math.log2(k_final)) + 1)
        lower, upper = cert.cw_lower, cert.cw_upper
        if lower > 0.0:
            self._max("perron.cw_width_rel_max", (upper - lower) / lower)
        threshold = delta / (2.0 * k_final * k_final)
        self._max(
            "perron.residual_over_threshold_max",
            max(cert.residual_left, cert.residual_right) / threshold,
        )

    def _traced_phase_solver(self, base):
        tracer = self

        class TracedPhaseSolver(base):
            def __init__(self, *args, **kwargs):
                if tracer._op is None:
                    super().__init__(*args, **kwargs)
                    return
                parent = tracer._stack[-1] if tracer._stack else None
                in_scan = parent is not None and parent.name == "_halving_scan"
                self._perfbench_scan = parent if in_scan else None
                if in_scan:
                    tracer._count("scaling.phases")
                frame = tracer._open("scaling", "_PhaseSolver")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(frame)

            def p_right(self, x):
                scan = getattr(self, "_perfbench_scan", None)
                if tracer._op is not None and scan is not None:
                    tracer._count("scaling.inner_iters")
                    if scan.entries is not None:
                        # one forward and one transpose product per iteration
                        tracer._count("scaling.matvec_flops_computed", 4.0 * scan.entries)
                return super().p_right(x)

        TracedPhaseSolver.__name__ = base.__name__
        TracedPhaseSolver.__qualname__ = base.__qualname__
        return TracedPhaseSolver

    def _wrap_apply(self, original):
        tracer = self

        @functools.wraps(original)
        def apply(op, *args, **kwargs):
            if tracer._op is None:
                return original(op, *args, **kwargs)
            fn = getattr(op, "_apply_fn", None)
            layer = _layer_of(getattr(fn, "__module__", None)) or "rcdd"
            report = getattr(op, "report", None)
            before = getattr(report, "iterations", 0)
            frame = tracer._open(layer, "apply")
            try:
                result = original(op, *args, **kwargs)
            finally:
                duration = tracer._close(frame)
            if layer == "rcdd":
                tracer._count("rcdd.applies")
                tracer._count("rcdd.apply_s", duration)
                tracer._count("rcdd.backend_iters", getattr(report, "iterations", 0) - before)
                residuals = getattr(report, "residuals", None)
                if residuals:
                    tracer._max("rcdd.residual_max", float(residuals[-1]))
            return result

        return apply

    def _wrap_factor(self, original, sparse):
        tracer = self

        @functools.wraps(original)
        def factor(matrix, *args, **kwargs):
            if tracer._op is None:
                return original(matrix, *args, **kwargs)
            t0 = time.perf_counter()
            result = original(matrix, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            layer = tracer._stack[-1].layer if tracer._stack else "none"
            tracer._count(f"{layer}.factor_count")
            tracer._count(f"{layer}.factor_s", elapsed)
            if sparse:
                tracer._count(f"{layer}.splu_count")
                stored = float(getattr(result, "nnz", 0))
                tracer._count(f"{layer}.factor_nnz_total", stored)
                nnz = getattr(matrix, "nnz", 0)
                if nnz:
                    tracer._max(f"{layer}.fill_ratio_max", stored / nnz)
            return result

        return factor


def _stored_entries(problem):
    """Entries one product with the scan's normalized matrix touches: ``n^2``
    with dense storage, ``nnz`` with sparse storage."""
    dense = getattr(problem, "dense", None)
    if dense is not None:
        return float(dense.size)
    csr = getattr(problem, "csr", None)
    return float(csr.nnz) if csr is not None else None


def _report_iterations(result) -> float:
    """``report.iterations`` of a ``(value, SolveReport)`` return."""
    if isinstance(result, tuple) and len(result) == 2:
        return float(getattr(result[1], "iterations", 0))
    return 0.0


def summarize(per_op: list[dict], absent: list[str]) -> tuple[dict, list[str]]:
    """Combine per-op values into the per-layer metrics; returns the metrics
    and the names that are not applicable (no observation, or a seam absent)."""
    metrics = {}
    not_applicable = []
    count = max(1, len(per_op))
    for name, (_, how) in PER_LAYER.items():
        seen = [values[name] for values in per_op if name in values]
        if how == "max":
            metrics[name] = max(seen) if seen else 0.0
            if not seen:
                not_applicable.append(name)
        else:
            metrics[name] = sum(seen) / count
    if any(seam.endswith("_PhaseSolver") for seam in absent):
        not_applicable += ["scaling.phases", "scaling.inner_iters", "scaling.matvec_flops_computed"]
    if "perron._m_decide_scaled" in absent:
        not_applicable.append("perron.decisions")
    return metrics, sorted(set(not_applicable))
