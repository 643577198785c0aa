"""The benchmark's workloads: the CLI argv they run and the output checks.

Each workload is a list of operations, one ``vegpatch.cli.main(argv)`` call
each, that a repetition runs in order.  Every check below is one counted
operation: ``attempted`` in the benchmark result is the number of checks
made and ``failed`` the number that did not hold.

Only the spectra of ``spectral_simulate`` depend on the seed.  ``sweep_fast``,
``bifurcate`` and the transients of ``spectral_simulate`` are fixed paper
presets whose ``--check`` gates and reference bands depend on their inputs, so
they ignore the seed.

The persistence spectra and the fixed-horizon transients share one workload:
with three workloads each run of the benchmark can be long enough (40 s) to
average out the speed swings of a shared 2-vCPU host.  Their layers do
not overlap (spectral/kinetics/tridiag against dynamics' horizon loop and
outputs), and both are bypassed by ``sweep_fast`` and ``bifurcate``.
"""
from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SPECTRAL_WIDTHS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
SPECTRAL_KERNELS = ("laplace", "super_gaussian")
# Half-range of the seed's per-width scale factor.  Run time grows faster
# than linearly in the widest widths (the Lipschitz estimate's water solves
# scale with N ~ L, power iteration with L^2 iterations of an N^2 matvec),
# so a +-10% range would make run time depend on the seed more than on the
# code being measured.
SPECTRAL_JITTER = 0.01
# cli.cmd_spectral's default grid spacing and node rule, used by the oracle.
SPECTRAL_SPACING = 0.05
BETA1_ORACLE_TOL = 1e-10

SIMULATE_BASE = ["simulate", "--L", "25", "--nodes", "75", "--t-final", "10",
                 "--dump-every", "100"]


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    ops: Callable[[int], list[tuple[str, list[str]]]]
    check: Callable[[list[dict], dict], list[tuple[str, bool, str]]]


def spectral_widths(seed: int) -> tuple[float, ...]:
    """The default seed (0) gives SPECTRAL_WIDTHS; any other scales each
    width by a factor drawn from [1 - SPECTRAL_JITTER, 1 + SPECTRAL_JITTER]."""
    if seed == 0:
        return SPECTRAL_WIDTHS
    rng = random.Random(seed)
    return tuple(round(L * rng.uniform(1 - SPECTRAL_JITTER,
                                       1 + SPECTRAL_JITTER), 6)
                 for L in SPECTRAL_WIDTHS)


def spectral_nodes(L: float) -> int:
    return max(3, int(round(2.0 * L / SPECTRAL_SPACING)) + 1)


# -- per-op output readers ---------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _manifest(op: dict) -> dict:
    return json.loads((Path(op["out"]) / "manifest.json").read_text())


# -- checks -------------------------------------------------------------------


def _check_sweep(ops, _oracle):
    (op,) = ops
    results = []
    try:
        rows = _read_csv(Path(op["out"]) / "sweep.csv")
    except OSError as exc:
        rows = []
        results.append(("sweep.csv", False, str(exc)))
    expected = 60          # 20 widths x 3 variants
    for i in range(expected):
        if i < len(rows):
            r = rows[i]
            key = f"{r['variant']}-{r['kernel'] or 'none'}-L{r['L']}"
            results.append((key, r["converged"] == "true",
                            f"converged={r['converged']}"))
        else:
            results.append((f"row {i}", False, "missing"))
    results.append(("--check gate", op["rc"] == 0, f"exit {op['rc']}"))
    return results


_BRANCH_LINE = re.compile(
    r"^(\S+) d_w=(\S+) (vegetated|desert): (\d+) points, "
    r"folds at \[(.*)\], (\S+)$")


def _check_bifurcate(ops, _oracle):
    (op,) = ops
    lines = Path(op["stdout"]).read_text().splitlines()
    branches = [m.groups() for m in map(_BRANCH_LINE.match, lines) if m]
    try:
        errors = _manifest(op).get("suite_errors", ["manifest missing"])
    except (OSError, ValueError) as exc:
        errors = [str(exc)]
    results = []
    expected = 12          # 2 d_w x 3 variants x (vegetated, desert)
    for i in range(expected):
        if i < len(branches):
            model, d_w, seed, _n, _folds, term = branches[i]
            results.append((f"{model} d_w={d_w} {seed}",
                            term == "parameter_exit", f"termination {term}"))
        else:
            results.append((f"branch {i}", False, "missing"))
    results.append(("--check gate", op["rc"] == 0 and not errors,
                    f"exit {op['rc']}; suite errors {errors}"))
    return results


def _check_spectral(ops, oracle):
    results = []
    for op in ops:
        kernel = op["argv"][op["argv"].index("--kernel") + 1]
        widths = [float(op["argv"][i + 1])
                  for i, a in enumerate(op["argv"]) if a == "--L"]
        try:
            rows = {float(r["L"]): float(r["beta1"])
                    for r in _read_csv(Path(op["out"]) / "spectral.csv")}
        except (OSError, KeyError, ValueError):
            rows = {}
        previous = math.inf
        for L in sorted(widths):
            tag = f"{kernel} L={L!r}"
            beta = rows.get(L)
            if op["rc"] != 0 or beta is None:
                results.append((tag, False, f"exit {op['rc']}; row missing"))
                continue
            ref = oracle[f"{kernel}:{L!r}"]
            ok = abs(beta - ref) <= BETA1_ORACLE_TOL and beta < previous
            results.append((tag, ok, f"beta1 {beta!r}, dense {ref!r}, "
                                      f"previous width {previous!r}"))
            previous = beta
    return results


def _check_simulate(ops, _oracle):
    results = []
    for op in ops:
        tag = op["argv"][op["argv"].index("--variant") + 1]
        try:
            manifest = _manifest(op)
            resolved = manifest["resolved"]
            a = float(resolved["model"]["A"])
            h_t = float(resolved["integration"]["h_t"])
            t_final = float(resolved["integration"]["t_final"])
            rows = _read_csv(Path(op["out"]) / "final_profile.csv")
            v = [float(r["v"]) for r in rows]
            w = [float(r["w"]) for r in rows]
        except (OSError, KeyError, ValueError) as exc:
            results.append((tag, False, f"exit {op['rc']}; {exc}"))
            continue
        if not rows:
            results.append((tag, False, "empty final profile"))
            continue
        steps = manifest.get("steps")
        finite = all(map(math.isfinite, v + w))
        ok = (op["rc"] == 0 and steps == round(t_final / h_t) and finite
              and min(v) >= 0.0 and min(w) >= 0.0 and max(w) <= a)
        results.append((tag, ok, f"exit {op['rc']}; {steps} steps; "
                                 f"v in [{min(v)!r}, {max(v)!r}], "
                                 f"w in [{min(w)!r}, {max(w)!r}], A={a!r}"))
    return results


def _check_spectral_simulate(ops, oracle):
    spectral = [op for op in ops if op["name"].startswith("spectral-")]
    simulate = [op for op in ops if op["name"].startswith("simulate-")]
    return (_check_spectral(spectral, oracle)
            + _check_simulate(simulate, oracle))


WORKLOADS = {
    w.name: w for w in (
        # The paper's critical-patch-size experiment: dynamics does ~97% of
        # the work (steady-state integration), continuation and spectral
        # none.  --workers 1 keeps the input independent of the core count.
        Workload(
            "sweep_fast",
            False,
            lambda seed: [("sweep", ["sweep", "--preset", "fast",
                                     "--workers", "1", "--check"])],
            _check_sweep),
        # The paper's rainfall branch diagrams: continuation (dense bordered
        # solves, stability flags) does the work, dynamics and spectral none.
        # It is the workload where a BLAS thread policy shows.
        Workload(
            "bifurcate",
            False,
            lambda seed: [("bifurcate", ["bifurcate", "--check"])],
            _check_bifurcate),
        # Persistence spectra: the only large grids (up to 1281 nodes), so
        # large-N assembly, power iteration and the Thomas water solves of
        # the Lipschitz estimate.  Then the fixed-horizon transient through
        # the per-step operator apply: the same dynamics layer as sweep_fast
        # by another path, so a stepper change that helps steady-state runs
        # but slows transients shows.  No continuation in either.
        Workload(
            "spectral_simulate",
            True,
            lambda seed: [
                (f"spectral-{k}",
                 ["spectral", "--kernel", k]
                 + [tok for L in spectral_widths(seed)
                    for tok in ("--L", repr(L))])
                for k in SPECTRAL_KERNELS]
            + [(f"simulate-{v}", SIMULATE_BASE + ["--variant", v])
               for v in ("nonlocal", "local")],
            _check_spectral_simulate),
    )
}


def oracle_cases(workload: str, seed: int) -> list[tuple[str, float]]:
    """(kernel, width) pairs whose dense beta1 the spectral check needs."""
    if workload != "spectral_simulate":
        return []
    return [(k, L) for k in SPECTRAL_KERNELS for L in spectral_widths(seed)]
