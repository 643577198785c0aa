"""Collect benchmark records into perfbench/baseline.json.

Usage: ``python3 perfbench/make_baseline.py``.  Reads the records that
run.py left in perfbench/_out/ (every ``--trace 0`` run per workload, and the
``--trace 1`` run per workload) and writes, per workload, the median and
quartiles of each end-to-end metric over those runs, the per-layer table of
the traced run, and the environment the runs reported.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    baseline = {"note": "Medians and quartiles are over the timed runs "
                        "listed in 'seeds', one value per run; the per-layer "
                        "table is one --trace 1 run.",
                "run_seconds": bench["run_seconds"],
                "workloads": {}}
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for name, workload in WORKLOADS.items():
        timed = sorted((json.loads(p.read_text())
                        for p in OUT.glob(f"{name}-seed*-trace0.json")),
                       key=lambda r: r["seed"])
        traced = sorted(OUT.glob(f"{name}-seed*-trace1.json"))
        if not timed or not traced:
            raise SystemExit(f"missing records for {name} in {OUT}")
        trace = json.loads(traced[0].read_text())
        e2e = {}
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"]
                      for r in timed]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            e2e[metric["name"]] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "iqr_share": (q3 - q1) / statistics.median(values),
                "unit": metric["unit"], "runs": len(values),
                "samples_per_run": [len(r["samples"][metric["name"]])
                                    for r in timed]}
        layers = trace["result"]["metrics"]
        baseline["workloads"][name] = {
            "why": why[name],
            "argv": timed[0]["environment"]["argv"],
            "seeded": workload.seeded,
            "seeds": [r["seed"] for r in timed],
            "correct": all(r["result"]["correct"] for r in timed + [trace]),
            "failed": sum(r["result"]["failed"] for r in timed + [trace]),
            "end_to_end": e2e,
            "trace_overhead_s": layers["trace.overhead_s"]["value"],
            "per_layer": {k: v["value"] for k, v in layers.items()},
        }
        env = timed[0]["environment"]
        baseline["environment"] = {k: env[k] for k in (
            "python", "numpy", "blas", "blas_threads", "blas_env", "nproc",
            "platform", "git_sha", "src_sha256")}
    (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("wrote perfbench/baseline.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
