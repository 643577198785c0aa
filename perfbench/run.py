"""vegpatch benchmark driver.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/`` of
the checkout this file sits in.  Workloads are defined in workloads.py.

``--trace 0`` (timed run).  Repetitions run one at a time, each in a fresh
interpreter (child.py) that imports ``vegpatch.cli`` and calls
``vegpatch.cli.main(argv)`` for each of the workload's operations.  Another
repetition starts only while it is expected to finish within ``--seconds``;
there is always at least one.  Reported, as medians over the repetitions:

* ``wall_s``: time for the workload's ``main(argv)`` calls to return,
  including output writing and ``--check``;
* ``setup_s``: time from spawning the interpreter until ``vegpatch.cli`` is
  imported.  Besides each repetition, an import-only child follows it, and
  more fill what is left of ``--seconds`` after the last repetition (at
  least SETUP_SAMPLES samples in all), so the median rests on many;
* ``peak_rss_mb``: peak resident memory of a repetition's process, read
  before any output check runs.

``--trace 1`` (per-layer run).  One untraced repetition, one traced
repetition (tracer.py) and one repetition with a single BLAS thread.  It
reports the per-layer table, the tracing overhead and process counters, and
checks that traced and untraced runs write byte-identical outputs and that
span self times add up to the root spans.  ``--seconds`` does not apply.

Every repetition's outputs are checked (workloads.py); ``attempted`` and
``failed`` count those checks.  The last line of standard output is the
result JSON; the full record, with the environment, the exact argv and every
sample, is written to perfbench/_out/.  BLAS thread variables are left as
the environment has them, except in the single-thread repetition.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, oracle_cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(extra: dict | None = None) -> dict:
    env = dict(os.environ)
    env.pop("VEGPATCH_OUT", None)       # outputs go where the spec says
    # Let the warm-up child cache bytecode, as an installed package has it,
    # so set-up time does not depend on whether the caller disabled that.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra or {})
    return env


def spawn(spec: dict, env_extra: dict | None = None) -> dict:
    """Run child.py with spec; returns its result plus setup_s."""
    result_path = Path(spec["result"])
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        cwd=ROOT, env=child_env(env_extra), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"child failed (exit {proc.returncode}):\n"
                         f"{proc.stdout}{proc.stderr}")
    result = json.loads(result_path.read_text())
    if not Path(result["vegpatch_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"vegpatch imported from {result['vegpatch_file']}, "
                         f"not from {SRC}")
    result["setup_s"] = result["t_imported"] - t0
    return result


class Run:
    """Repetitions of one workload inside a private work directory."""

    def __init__(self, bench: dict, workload, seed: int, tag: str):
        self.bench = bench
        self.workload = workload
        self.seed = seed
        self.ops = workload.ops(seed)
        self.dir = WORK / f"{workload.name}-{tag}-{os.getpid()}"
        self.count = 0
        self.checks: list[dict] = []

    def spec(self, **fields) -> dict:
        self.count += 1
        rep = self.dir / f"rep{self.count:03d}"
        rep.mkdir(parents=True)
        return {"result": str(rep / "result.json"), **fields}

    def import_only(self) -> dict:
        return spawn(self.spec())

    def oracle(self) -> dict:
        cases = oracle_cases(self.workload.name, self.seed)
        return spawn(self.spec(oracle=cases))["oracle"] if cases else {}

    def repetition(self, trace=False, env_extra=None) -> dict:
        spec = self.spec(trace=trace)
        rep = Path(spec["result"]).parent
        spec["ops"] = [{"name": name, "argv": argv, "out": str(rep / name),
                        "stdout": str(rep / f"{name}.stdout"),
                        "stderr": str(rep / f"{name}.stderr")}
                       for name, argv in self.ops]
        if trace:
            spec["spans"] = str(OUT / f"spans-{self.workload.name}.jsonl.gz")
        result = spawn(spec, env_extra)
        result["spans_file"] = spec.get("spans")
        result["wall_s"] = sum(op["wall_s"] for op in result["ops"])
        result["dir"] = rep
        return result

    def check(self, rep: dict, oracle: dict, label: str) -> None:
        for name, ok, detail in self.workload.check(rep["ops"], oracle):
            self.checks.append({"rep": label, "op": name, "ok": bool(ok),
                                "detail": detail})

    def add_check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append({"rep": "trace", "op": name, "ok": ok,
                            "detail": detail})

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()                # only if no other run uses it


def science_files(rep: dict) -> dict[str, bytes]:
    """Every output file except the manifest, which records wall times."""
    files = {}
    for op in rep["ops"]:
        base = Path(op["out"])
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                files[f"{op['name']}/{path.relative_to(base)}"] = \
                    path.read_bytes()
    return files


def timed(run: Run, seconds: float, oracle: dict) -> tuple[dict, dict]:
    walls, setups, rss, cpu = [], [], [], []
    start = time.monotonic()
    while True:
        t_rep = time.monotonic()
        rep = run.repetition()
        run.check(rep, oracle, f"rep{len(walls) + 1}")
        shutil.rmtree(rep["dir"], ignore_errors=True)
        walls.append(rep["wall_s"])
        setups.append(rep["setup_s"])
        rss.append(rep["peak_rss_mb"])
        cpu.append(rep["cpu_s"])
        setups.append(run.import_only()["setup_s"])
        rep_cost = time.monotonic() - t_rep
        if time.monotonic() - start + rep_cost > seconds:
            break
    while len(setups) < SETUP_SAMPLES or time.monotonic() - start < seconds:
        setups.append(run.import_only()["setup_s"])
    samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
               "cpu_s": cpu}
    metrics = {m["name"]: {"value": statistics.median(samples[m["name"]]),
                           "unit": m["unit"]}
               for m in run.bench["end_to_end"]}
    return metrics, samples


def traced(run: Run, oracle: dict) -> tuple[dict, dict]:
    plain = run.repetition()
    run.check(plain, oracle, "untraced")
    traced_rep = run.repetition(trace=True)
    run.check(traced_rep, oracle, "traced")
    one_blas = run.repetition(env_extra=ONE_BLAS_THREAD)
    run.check(one_blas, oracle, "one_blas_thread")

    a, b = science_files(plain), science_files(traced_rep)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    run.add_check("traced outputs identical", bool(a) and not differ,
                  f"{len(a)} files; differing: {differ[:10]}")
    problems = traced_rep["trace_problems"]
    run.add_check("span self times add up", not problems, "; ".join(problems))
    if one_blas["blas_threads"] not in (1, None):
        raise BenchError(f"single-thread repetition ran with "
                         f"{one_blas['blas_threads']} BLAS threads")

    layers = dict(traced_rep["layers"])
    layers.update({
        "process.cpu_s": plain["cpu_s"],
        "process.cpu_per_wall": plain["cpu_s"] / plain["wall_s"],
        "process.blas_threads": plain["blas_threads"] or 0,
        "process.wall_s_1blas": one_blas["wall_s"],
        "trace.overhead_s": traced_rep["wall_s"] - plain["wall_s"],
    })
    missing = [m["name"] for m in run.bench["per_layer"]
               if m["name"] not in layers]
    if missing:
        raise BenchError(f"per-layer metrics not measured: {missing}")
    metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
               for m in run.bench["per_layer"]}
    samples = {"wall_s_untraced": plain["wall_s"],
               "wall_s_traced": traced_rep["wall_s"],
               "wall_s_1blas": one_blas["wall_s"],
               "spans": traced_rep["spans"],
               "wrapped": traced_rep["wrapped"],
               "spans_file": str(
                   Path(traced_rep["spans_file"]).relative_to(ROOT))}
    return metrics, samples


def git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' when the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """SHA-256 over src/ file paths and contents (identifies the program
    when the checkout has no git metadata)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(probe: dict, run: Run) -> dict:
    return {
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": probe["blas_threads"],
        "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                     if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "argv": [["vegpatch", *argv] for _name, argv in run.ops],
        "seeded": run.workload.seeded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vegpatch" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'vegpatch'} is "
              "missing", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload.name]
    run = Run(bench, workload, args.seed, f"s{args.seed}-t{args.trace}")
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        # Unmeasured warm-up: compiles bytecode in a fresh checkout and
        # warms the file cache, and reports the environment.
        probe = run.import_only()
        oracle = run.oracle()
        if args.trace:
            metrics, samples = traced(run, oracle)
        else:
            metrics, samples = timed(run, seconds, oracle)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        run.close()

    failed = [c for c in run.checks if not c["ok"]]
    result = {"correct": not failed, "attempted": len(run.checks),
              "failed": len(failed), "metrics": metrics}
    record = {"workload": workload.name, "why": why,
              "seed": args.seed, "seconds": seconds,
              "trace": args.trace, "environment": environment(probe, run),
              "samples": samples, "failed_checks": failed, "result": result}
    record_path = OUT / (f"{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for check in failed[:20]:
        print(f"FAILED {check['rep']} {check['op']}: {check['detail']}")
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
