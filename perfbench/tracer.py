"""Outside-in span tracer for the vegpatch package.

The tracer changes nothing under ``src/``.  It replaces selected functions
and methods with timing wrappers after the package has been imported.  The
package binds names with ``from .x import y``, so a wrapper is installed on
every vegpatch module that holds the original object, not only on the module
that defines it; otherwise callers would keep calling the unwrapped copy.

Each wrapped call records one span (name, start, end, parent) in memory.
Some hot, tiny calls (the continuation residual, kernel evaluations) are
counted without a span so that tracing them does not swamp the run.  When
the run ends the spans are written out and reduced to the per-layer table.
"""
from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time
from array import array
from collections import defaultdict

ROOT_SPAN = "cli.main"


class Tracer:
    """Spans kept in parallel arrays, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._open = [(-1, "")]        # (span index, name) of open spans

    def call(self, name, fn, args, kwargs, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span called name.

        A call made while a span of the same name is already innermost runs
        untraced, so a layer that calls itself is counted once.  ``before``
        and ``after`` run outside the timed interval; ``after`` receives the
        counters, the arguments, the result and whatever ``before`` returned.
        """
        if self._open[-1][1] == name:
            return fn(*args, **kwargs)
        token = before(args, kwargs) if before else None
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1][0])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append((idx, name))
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.starts[idx] = t0
            self.ends[idx] = t1
        if after:
            after(self.counts, args, kwargs, result, token)
        return result

    def wrap(self, fn, name, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        return traced

    def counter(self, fn, key, amount=None):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += amount(args) if amount else 1
            return fn(*args, **kwargs)
        return counted

    # -- reduction -------------------------------------------------------

    def aggregate(self):
        """Per span name: inclusive seconds, self seconds and call count."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        agg: dict[str, dict] = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            row = agg.setdefault(self.names[i],
                                 {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += dur
            row["self_s"] += dur - child[i]
            row["calls"] += 1
        return agg, child

    def self_check(self) -> list[str]:
        """Structural checks: nesting, non-negative self time, and self
        times summing to the root spans."""
        problems = []
        agg, child = self.aggregate()
        root_total = 0.0
        self_total = 0.0
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            self_total += dur - child[i]
            if dur - child[i] < -1e-9:
                problems.append(f"negative self time in span {i} ({name})")
            p = self.parents[i]
            if p < 0:
                root_total += dur
                if name != ROOT_SPAN:
                    problems.append(f"span {i} ({name}) outside any root")
            elif (self.starts[i] < self.starts[p]
                  or self.ends[i] > self.ends[p]):
                problems.append(f"span {i} ({name}) escapes its parent")
        if abs(self_total - root_total) > 1e-9 * max(1.0, root_total) \
                + 1e-12 * len(self.names):
            problems.append(f"self times sum to {self_total!r} s, "
                            f"root spans to {root_total!r} s")
        if not self.names:
            problems.append("no spans recorded")
        return problems[:20]

    def dump(self, path) -> None:
        """Write every span as JSON lines: a header, then one span a line."""
        t_zero = self.starts[0] if self.names else 0.0
        ids: dict[str, int] = {}
        for name in self.names:
            ids.setdefault(name, len(ids))
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["name", "start_s", "end_s",
                                            "parent"],
                                 "names": list(ids)}) + "\n")
            for i, name in enumerate(self.names):
                fh.write(f"[{ids[name]},{self.starts[i] - t_zero!r},"
                         f"{self.ends[i] - t_zero!r},{self.parents[i]}]\n")


# -- what gets wrapped --------------------------------------------------------


def _rebind(original, replacement) -> int:
    """Install replacement wherever a vegpatch module holds original."""
    hits = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "vegpatch"
                               or name.startswith("vegpatch.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


class _Namespace:
    """Attribute proxy: overrides first, then the wrapped object.

    Attributes fetched from the target are cached on the proxy, so repeated
    lookups in hot loops cost a plain instance lookup.
    """

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        self.__dict__[name] = value
        return value


def _dir_bytes(path) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    total = 0
    if os.path.isdir(path):
        for base, _dirs, files in os.walk(path):
            total += sum(os.path.getsize(os.path.join(base, f))
                         for f in files)
    return total


def _add(counts, key, value):
    counts[key] += value


def install(tracer: Tracer) -> list[str]:
    """Wrap the package's layer entry points; returns the wrapped names."""
    import numpy as np

    import vegpatch.cli as cli
    import vegpatch.continuation as continuation
    import vegpatch.discretization as discretization
    import vegpatch.dynamics as dynamics
    import vegpatch.experiments as experiments
    import vegpatch.kernels as kernels
    import vegpatch.kinetics as kinetics
    import vegpatch.outputs as outputs
    import vegpatch.spectral as spectral
    import vegpatch.tridiag as tridiag

    def steady_after(counts, args, kwargs, result, _token):
        results = result if isinstance(result, list) else [result]
        _add(counts, "dynamics.steady.cell_steps",
             sum(r.steps for r in results))
        _add(counts, "dynamics.steady.unconverged",
             sum(not r.converged for r in results))

    def horizon_after(counts, args, kwargs, result, _token):
        _add(counts, "dynamics.horizon.steps", result[0].step_count)

    def assemble_after(counts, args, kwargs, result, _token):
        _add(counts, "discretization.assemble.nodes", result.grid.n_nodes)

    def branch_after(counts, args, kwargs, result, _token):
        _add(counts, "continuation.branch.points", len(result.points))
        _add(counts, "continuation.branch.folds", len(result.folds))

    def flag_after(counts, args, kwargs, result, _token):
        _add(counts, "continuation.flag.undecided", result is None)

    def solve_after(counts, args, kwargs, result, _token):
        n = args[0].shape[0]
        _add(counts, "continuation.dense_solve.order_sum", n)
        _add(counts, "continuation.dense_solve.flops_computed",
             2.0 * n ** 3 / 3.0)
        _add(counts, "continuation.dense_solve.bytes_computed", 8.0 * n * n)

    def beta1_after(counts, args, kwargs, result, _token):
        n = args[0].n_nodes
        _add(counts, "spectral.beta1.iterations", result.iterations)
        _add(counts, "spectral.beta1.unconverged", not result.converged)
        _add(counts, "spectral.beta1.matvec_flops_computed",
             result.iterations * 2.0 * n * n)

    def lambda1_after(counts, args, kwargs, result, _token):
        _add(counts, "spectral.lambda1.iterations", result.iterations)

    def thomas_after(counts, args, kwargs, result, _token):
        _add(counts, "tridiag.thomas.rows", args[1].shape[0])

    def write_before(args, kwargs):
        return _dir_bytes(args[0])

    def write_after(counts, args, kwargs, result, token):
        _add(counts, "outputs.write.bytes", _dir_bytes(args[0]) - token)

    functions = [
        (dynamics, "run_to_steady_batch", "dynamics.steady", steady_after),
        (dynamics, "run_to_steady", "dynamics.steady", steady_after),
        (dynamics, "simulate_horizon", "dynamics.horizon", horizon_after),
        (discretization, "build_operators", "discretization.assemble",
         assemble_after),
        (continuation, "palc_continue", "continuation.branch", branch_after),
        (continuation, "newton", "continuation.newton", None),
        (continuation, "stability_flag", "continuation.flag", flag_after),
        (spectral, "principal_eigenvalue_nonlocal", "spectral.beta1",
         beta1_after),
        (spectral, "principal_eigenvalue_laplacian", "spectral.lambda1",
         lambda1_after),
        (spectral, "estimate_lipschitz_M", "spectral.lipschitz", None),
        (kinetics, "solve_water_stationary", "kinetics.water_solve", None),
        (tridiag, "thomas_solve", "tridiag.thomas", thomas_after),
    ]
    functions += [(experiments, name, f"experiments.{name}", None)
                  for name in ("builtin_kernel", "cosine_perturbed_start",
                               "log_spaced_L", "fast_sweep_config",
                               "full_sweep_config", "sweep_resolution",
                               "run_patch_sweep", "detect_critical_L",
                               "run_bifurcation_suite")]
    writers = [(outputs, name) for name in sorted(vars(outputs))
               if name.startswith("write_")]
    writers.append((cli, "_write_trajectory"))

    wrapped = []
    for module, attr, span, after in functions:
        original = getattr(module, attr)
        if _rebind(original, tracer.wrap(original, span, after=after)) == 0:
            raise RuntimeError(f"could not wrap {module.__name__}.{attr}")
        wrapped.append(f"{module.__name__}.{attr}")
    for module, attr in writers:
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(original, "outputs.write",
                                      write_before, write_after))
        wrapped.append(f"{module.__name__}.{attr}")

    methods = [
        (discretization.DispersalOperator, "apply",
         "discretization.dispersal_apply"),
        (discretization.LaplacianOperator, "apply",
         "discretization.laplacian_apply"),
        (continuation.StationaryResidual, "jacobian", "continuation.jacobian"),
    ]
    for cls, attr, span in methods:
        setattr(cls, attr, tracer.wrap(cls.__dict__[attr], span))
        wrapped.append(f"{cls.__module__}.{cls.__name__}.{attr}")
    residual = continuation.StationaryResidual.__dict__["residual"]
    continuation.StationaryResidual.residual = tracer.counter(
        residual, "continuation.residual.calls")
    wrapped.append("vegpatch.continuation.StationaryResidual.residual")

    original_eval = kernels.kernel_eval
    if _rebind(original_eval, tracer.counter(
            original_eval, "discretization.kernel_evals",
            lambda args: np.size(args[1]))) == 0:
        raise RuntimeError("could not wrap vegpatch.kernels.kernel_eval")
    wrapped.append("vegpatch.kernels.kernel_eval")

    # Dense linear algebra is looked up as np.linalg.* inside continuation;
    # a proxy for that module's numpy binding scopes the wrappers to it.
    continuation.np = _Namespace(np, linalg=_Namespace(
        np.linalg,
        solve=tracer.wrap(np.linalg.solve, "continuation.dense_solve",
                          after=solve_after),
        eigvals=tracer.wrap(np.linalg.eigvals, "continuation.eigvals")))
    wrapped += ["vegpatch.continuation.np.linalg.solve",
                "vegpatch.continuation.np.linalg.eigvals"]
    return wrapped


# -- per-layer table -------------------------------------------------------

#: Per-layer metrics computed from spans and counters.  Names describe a
#: layer's role, not a function, so that they survive refactors of the code
#: behind them.
LAYER_METRICS = (
    "dynamics.steady.s",
    "dynamics.steady.calls",            # batch calls, not cells
    "dynamics.steady.cell_steps",
    "dynamics.steady.unconverged",
    "dynamics.steady.us_per_cell_step",
    "dynamics.horizon.s",
    "dynamics.horizon.self_s",
    "dynamics.horizon.steps",
    "dynamics.horizon.us_per_step",
    "discretization.assemble.s",
    "discretization.assemble.calls",
    "discretization.assemble.nodes",
    "discretization.kernel_evals",      # kernel points evaluated
    "discretization.dispersal_apply.s",
    "discretization.dispersal_apply.calls",
    "discretization.laplacian_apply.s",
    "discretization.laplacian_apply.calls",
    "continuation.branch.s",
    "continuation.branch.self_s",
    "continuation.branch.points",
    "continuation.branch.folds",
    "continuation.newton.s",
    "continuation.newton.calls",
    "continuation.jacobian.s",
    "continuation.jacobian.calls",
    "continuation.residual.calls",
    "continuation.dense_solve.s",
    "continuation.dense_solve.calls",
    "continuation.dense_solve.order_mean",
    "continuation.dense_solve.flops_computed",
    "continuation.dense_solve.bytes_computed",
    "continuation.jacobians_per_point",
    "continuation.flag.s",
    "continuation.flag.self_s",
    "continuation.flag.calls",
    "continuation.flag.undecided",
    "continuation.eigvals.s",
    "continuation.eigvals.calls",
    "spectral.beta1.s",
    "spectral.beta1.calls",
    "spectral.beta1.iterations",
    "spectral.beta1.unconverged",
    "spectral.beta1.matvec_flops_computed",
    "spectral.lambda1.s",
    "spectral.lambda1.iterations",
    "spectral.lipschitz.s",
    "spectral.lipschitz.self_s",
    "kinetics.water_solve.s",
    "kinetics.water_solve.self_s",
    "kinetics.water_solve.calls",
    "tridiag.thomas.s",
    "tridiag.thomas.calls",
    "tridiag.thomas.rows",
    "outputs.write.s",
    "outputs.write.calls",
    "outputs.write.bytes",
    "experiments.self_s",
    "cli.self_s",
)


def layer_table(tracer: Tracer) -> dict[str, float]:
    """Reduce the spans and counters to the LAYER_METRICS values."""
    agg, _child = tracer.aggregate()
    counts = tracer.counts
    table: dict[str, float] = {}
    for metric in LAYER_METRICS:
        layer, _, field = metric.rpartition(".")
        if layer in agg and field in agg[layer]:
            table[metric] = agg[layer][field]
        else:
            table[metric] = counts.get(metric, 0)
    table["experiments.self_s"] = sum(
        row["self_s"] for name, row in agg.items()
        if name.startswith("experiments."))
    table["cli.self_s"] = agg.get(ROOT_SPAN, {}).get("self_s", 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0

    table["dynamics.steady.us_per_cell_step"] = ratio(
        table["dynamics.steady.s"], table["dynamics.steady.cell_steps"], 1e6)
    table["dynamics.horizon.us_per_step"] = ratio(
        table["dynamics.horizon.s"], table["dynamics.horizon.steps"], 1e6)
    table["continuation.dense_solve.order_mean"] = ratio(
        counts.get("continuation.dense_solve.order_sum", 0),
        table["continuation.dense_solve.calls"])
    table["continuation.jacobians_per_point"] = ratio(
        table["continuation.jacobian.calls"],
        table["continuation.branch.points"])
    return table
