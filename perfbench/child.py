"""One benchmark repetition, run in a fresh interpreter by run.py.

Usage: ``python3 perfbench/child.py '<json spec>'``.  The spec names the
operations (``vegpatch.cli.main`` argv lists with their output directories),
whether to trace, and where to write the result JSON.  With no operations
the child only imports ``vegpatch.cli`` and reports its environment, which is
how run.py takes extra set-up samples.  With ``oracle`` cases it computes the
dense-eigensolve beta1 values the spectral check compares against.

``t_imported`` is ``time.monotonic()`` right after ``vegpatch.cli`` is
imported; on Linux that clock is shared between processes, so run.py takes
set-up time as ``t_imported`` minus its own reading just before the spawn.
"""
import json
import sys
import time

import vegpatch.cli  # set-up ends here

T_IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def blas_info() -> dict:
    """BLAS library and thread count as numpy sees them."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = (f"{deps.get('name')} {deps.get('version')}: "
                        f"{deps.get('openblas configuration', '')}").strip()
    except (KeyError, TypeError, ValueError):
        pass
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def run_ops(spec: dict, tracer) -> list[dict]:
    done = []
    for op in spec["ops"]:
        os.makedirs(op["out"], exist_ok=True)
        argv = op["argv"] + ["--out", op["out"]]
        rc = None
        with open(op["stdout"], "w") as out, \
                open(op["stderr"], "w") as err, \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = vegpatch.cli.main(argv)
                else:
                    rc = tracer.call("cli.main", vegpatch.cli.main,
                                     (argv,), {})
            except SystemExit as exc:
                rc = exc.code
            except Exception:          # reported as a failed operation
                traceback.print_exc()
                rc = "exception"
            wall = time.perf_counter() - t0
        done.append({**op, "rc": rc, "wall_s": wall})
    return done


def oracle(cases) -> dict:
    from vegpatch.discretization import build_operators, make_grid
    from vegpatch.experiments import builtin_kernel
    from vegpatch.spectral import principal_eigenvalue_nonlocal_dense

    from workloads import spectral_nodes

    values = {}
    for kernel, L in cases:
        grid = make_grid(L, spectral_nodes(L))
        ops = build_operators(grid, "nonlocal", builtin_kernel(kernel))
        values[f"{kernel}:{L!r}"] = principal_eigenvalue_nonlocal_dense(
            ops.dispersal)
    return values


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"t_imported": T_IMPORTED,
              "vegpatch_file": vegpatch.cli.__file__,
              "python": platform.python_version(), **blas_info()}
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer, install
        tracer = Tracer()
        result["wrapped"] = install(tracer)
    if spec.get("oracle"):
        result["oracle"] = oracle(spec["oracle"])
    if spec.get("ops"):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        result["ops"] = run_ops(spec, tracer)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = (ru1.ru_utime - ru0.ru_utime
                           + ru1.ru_stime - ru0.ru_stime)
        result["peak_rss_mb"] = ru1.ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import layer_table
        tracer.dump(spec["spans"])
        result["layers"] = layer_table(tracer)
        result["trace_problems"] = tracer.self_check()
        result["spans"] = len(tracer.names)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
