import contextlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vegpatch.cli import main
from vegpatch.config import load_ini, make_resolver, resolve_output_dir
from vegpatch.dynamics import IMEX_STEP, STEADY_STEP_CAP
from vegpatch.errors import ConfigError


def run_cli(args, monkeypatch, tmp_path):
    monkeypatch.setenv("VEGPATCH_OUT", str(tmp_path))
    return main(args)


def test_kernels_check_passes(capsys):
    assert main(["kernels", "check", "--family", "laplace"]) == 0
    out = capsys.readouterr().out
    assert "normalization" in out and "FAIL" not in out


def test_kernels_check_needs_a_kernel():
    assert main(["kernels", "check"]) == 2


def test_kernels_check_flags_bad_table(tmp_path, capsys):
    z = np.linspace(-1, 1, 101)
    table = tmp_path / "signed.csv"
    np.savetxt(table, np.column_stack([z, z]), delimiter=",")
    assert main(["kernels", "check", "--table", str(table)]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_spectral_beta1_decreases_with_width(capsys):
    assert main(["spectral", "--L", "2", "--L", "4",
                 "--kernel", "laplace", "--spacing", "0.1"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln and not ln.startswith("#") and not ln.startswith("L,")]
    betas = [float(ln.split(",")[1]) for ln in lines]
    assert betas[1] < betas[0]


def test_steady_writes_profile_and_manifest(tmp_path, monkeypatch, capsys):
    code = run_cli(["steady", "--L", "10", "--nodes", "65", "--tol", "0.1",
                    "--out", "run1"], monkeypatch, tmp_path)
    assert code == 0
    outdir = tmp_path / "run1"
    assert (outdir / "final_profile.csv").exists()
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["converged"] is True
    assert manifest["residual"] < 0.1
    assert manifest["resolved"]["model"]["A"] == 1.8
    assert manifest["resolved"]["integration"] == {"tol": 0.1,
                                                   "trajectory_every": 0}
    assert f"residual={manifest['residual']:.3e}" in capsys.readouterr().out


def test_steady_stops_at_the_step_cap(tmp_path, monkeypatch, capsys):
    code = run_cli(["steady", "--L", "2", "--nodes", "9", "--tol", "1e-300",
                    "--out", "stuck"], monkeypatch, tmp_path)
    assert code == 3
    manifest = json.loads((tmp_path / "stuck" / "manifest.json").read_text())
    assert manifest["converged"] is False
    assert manifest["steps"] == STEADY_STEP_CAP
    assert manifest["steady_state"]["step_cap"] == STEADY_STEP_CAP
    assert "steady state not reached" in capsys.readouterr().err


def test_steady_trajectory_ends_with_the_returned_state(tmp_path,
                                                        monkeypatch):
    # a steady run takes far fewer steps than the cadence, yet its last row
    # is the state it returns
    code = run_cli(["steady", "--L", "10", "--nodes", "65", "--dump-every",
                    "100", "--out", "traj"], monkeypatch, tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "traj" / "manifest.json").read_text())
    assert 0 < manifest["steps"] < 100
    assert manifest["steady_state"]["step"] == IMEX_STEP
    track = (tmp_path / "traj" / "trajectory.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in track[1:]] == [
        0.0, manifest["steps"] * IMEX_STEP]


def test_steady_blowup_exits_3_naming_step_and_node(tmp_path, monkeypatch,
                                                    capsys):
    code = run_cli(["steady", "--L", "10", "--nodes", "65", "--init",
                    "uniform:9e5", "--out", "blow"], monkeypatch, tmp_path)
    assert code == 3
    summary = json.loads(capsys.readouterr().err)
    assert summary["type"] == "Blowup"
    assert "step 1, node " in summary["message"]
    assert not (tmp_path / "blow" / "final_profile.csv").exists()


def test_simulate_dumps_trajectory(tmp_path, monkeypatch):
    code = run_cli(["simulate", "--L", "10", "--nodes", "65", "--ht", "1e-3",
                    "--t-final", "0.5", "--dump-every", "50",
                    "--init", "uniform:0.2", "--out", "sim1"],
                   monkeypatch, tmp_path)
    assert code == 0
    track = (tmp_path / "sim1" / "trajectory.csv").read_text().splitlines()
    assert track[0] == "t,min_v,max_v,avg_v,max_w"
    assert len(track) > 5


def test_negative_mortality_is_config_error(tmp_path, monkeypatch):
    code = run_cli(["steady", "--B", "-1"], monkeypatch, tmp_path)
    assert code == 2


def test_config_file_and_flag_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nA = 2.5\nB = 0.5\n\n[integration]\nh_t = 1e-3\n")
    sections = load_ini(cfg)
    assert sections["model"]["a"] == "2.5"   # configparser lowercases keys
    res = make_resolver(cfg)
    assert res.get("model", "a", float, 1.8) == 2.5
    assert res.get("model", "a", float, 1.8, override=3.0) == 3.0
    assert res.get("integration", "h_t", float, 1e-4) == 1e-3
    assert res.get("integration", "tol", float, 1e-5) == 1e-5


def test_uppercase_config_keys_reach_the_run(tmp_path, monkeypatch):
    # configparser lowercases keys; A and N must still be found
    cfg = tmp_path / "run.ini"
    cfg.write_text("[model]\nA = 2.5\n\n[grid]\nL = 10\nN = 33\n")
    code = run_cli(["simulate", "--config", str(cfg), "--ht", "1e-3",
                    "--t-final", "0.01", "--out", "upper"],
                   monkeypatch, tmp_path)
    assert code == 0
    outdir = tmp_path / "upper"
    resolved = json.loads((outdir / "manifest.json").read_text())["resolved"]
    assert resolved["model"]["A"] == 2.5
    assert resolved["grid"] == {"L": 10.0, "N": 33}
    profile = (outdir / "final_profile.csv").read_text().splitlines()
    assert len(profile) == 1 + 33


# Input files the bad-input cases below name as {tmp}/<name>.
BAD_INPUT_FILES = {
    "words.csv": "0.0,0.5\n0.5,abc\n1.0,0.0\n",
    "three.csv": "0.0,0.5,1\n0.5,0.5,1\n1.0,0.0,1\n",
    "nan.csv": "0.0,0.5\n0.5,nan\n1.0,0.0\n",
    "one.csv": "0.0,0.5\n",
    "cauchy.ini": "[model]\nkernel = cauchy\n",
    "simpson.ini": "[grid]\nscheme = simpson\n",
    "ds0.ini": "[continuation]\nds0 = nan\n",
    "newton_tol.ini": "[continuation]\nnewton_tol = -1\n",
    "rain.ini": "[model]\nA = nan\n",
    "water.ini": "[model]\nd_w = -1\n",
    "modle.ini": "[modle]\nA = 2\n",
    "aa.ini": "[model]\nAA = 2\n",
    "no_dw.ini": "[bifurcation]\nd_w_values =\n",
    "point_cap.ini": "[continuation]\npoint_cap = 0\n",
    "stride.ini": "[bifurcation]\nstability_stride = -1\n",
    "dry.ini": "[model]\nB = 1\n",
    "max_steps.ini": "[integration]\nmax_steps = 10\n",
    "tol.ini": "[integration]\ntol = 1e-9\n",
    "h_t.ini": "[integration]\nh_t = 1e-3\n",
    "bif_model.ini": "[model]\nd_w = 80\nA = 2.5\n\n[grid]\nN = 300\n",
    "grid_n.ini": "[grid]\nN = 300\n",
    "variant.ini": "[model]\nvariant = abc\n",
    "dw_abc.ini": "[bifurcation]\nd_w_values = abc\n",
    "rain_x.ini": "[model]\nA = x\n",
    "arid.ini": "[model]\nB = 1.6\n",
    "huge_dv.ini": "[model]\nd_v = 1e308\n",
}


@pytest.mark.parametrize("argv, needles", [
    (["simulate", "--L", "5", "--nodes", "21", "--init", "uniform:abc"],
     ["uniform:abc"]),
    # default spacing 0.05 needs 4401 nodes, above the dense limit
    (["spectral", "--L", "110"], ["4401 nodes", "4096", "--spacing"]),
    (["simulate", "--L", "nan"], ["half-width", "nan"]),
    (["simulate", "--L", "-1"], ["half-width", "-1"]),
    (["simulate", "--nodes", "2"], ["3 nodes"]),
    (["simulate", "--A", "inf"], ["A must be finite"]),
    (["sweep", "--preset", "fast", "--points", "0"], ["points", "0"]),
    (["spectral", "--L", "nan"], ["--L", "nan"]),
    (["simulate", "--t-final", "nan"], ["t_final", "nan"]),
    (["spectral", "--L", "5", "--spacing", "0"], ["--spacing", "0.0"]),
    (["spectral", "--L", "5", "--spacing", "-0.1"], ["--spacing", "-0.1"]),
    (["steady", "--tol", "nan"], ["tol", "nan"]),
    (["simulate", "--dump-every", "-3"], ["trajectory_every", "-3"]),
    (["simulate", "--L", "5", "--nodes", "21", "--ht", "nan"], ["h_t", "nan"]),
    (["spectral", "--L", "1", "--dv", "-1"], ["d_v must be finite"]),
    (["spectral", "--L", "1", "--M", "-1"], ["--M", "-1"]),
    (["spectral", "--L", "5", "--spacing", "1e-320"], ["inf nodes", "4096"]),
    (["sweep", "--preset", "fast", "--L-min", "nan"], ["L_min", "nan"]),
    (["sweep", "--preset", "fast", "--threshold", "nan"], ["threshold"]),
    (["bifurcate", "--L", "nan"], ["L must be finite", "nan"]),
    (["bifurcate", "--dw", "-1"], ["d_w", "-1"]),
    (["simulate", "--L", "5", "--nodes", "21", "--init", "uniform:-1"],
     ["uniform:-1", "non-negative"]),
    (["kernels", "check", "--table", "/nonexistent.csv"],
     ["/nonexistent.csv"]),
    (["kernels", "check", "--table", "{tmp}/words.csv"], ["words.csv"]),
    (["kernels", "check", "--table", "{tmp}/three.csv"],
     ["three.csv", "two columns"]),
    (["kernels", "check", "--table", "{tmp}/nan.csv"],
     ["nan.csv", "non-finite"]),
    (["kernels", "check", "--table", "{tmp}/one.csv"],
     ["one.csv", "two rows"]),
    (["simulate", "--config", "{tmp}/cauchy.ini", "--L", "5", "--nodes", "21"],
     ["kernel", "cauchy"]),
    (["steady", "--config", "{tmp}/cauchy.ini", "--L", "5", "--nodes", "21"],
     ["kernel", "cauchy"]),
    (["steady", "--config", "{tmp}/variant.ini", "--L", "5", "--nodes", "21"],
     ["variant", "abc"]),
] + [
    ([command, "--config", "{tmp}/simpson.ini"] + extra, ["scheme", "simpson"])
    for command, extra in (("simulate", ["--L", "5", "--nodes", "21"]),
                           ("steady", ["--L", "5", "--nodes", "21"]),
                           ("sweep", ["--preset", "fast"]),
                           ("bifurcate", []))
] + [
    (["bifurcate", "--dw", "0.1", "--config", "{tmp}/ds0.ini"],
     ["ds0", "nan"]),
    (["bifurcate", "--dw", "0.1", "--config", "{tmp}/newton_tol.ini"],
     ["newton_tol", "-1"]),
    (["sweep", "--preset", "fast", "--config", "{tmp}/rain.ini"],
     ["A must be finite", "nan"]),
    (["sweep", "--preset", "fast", "--config", "{tmp}/water.ini"],
     ["d_w must be finite", "-1"]),
    (["steady", "--config", "{tmp}/modle.ini"], ["section", "[modle]"]),
    (["steady", "--config", "{tmp}/aa.ini"], ["[model]", "aa", "'2'"]),
    # steady states stop on tol alone
    (["steady", "--config", "{tmp}/max_steps.ini"],
     ["[integration]", "max_steps", "'10'"]),
    (["sweep", "--preset", "fast", "--config", "{tmp}/max_steps.ini"],
     ["[integration]", "max_steps", "'10'"]),
    # each command accepts exactly the keys it reads
    (["sweep", "--preset", "fast", "--config", "{tmp}/tol.ini"],
     ["sweep", "section [integration]", "[integration] tol = '1e-9'"]),
    (["simulate", "--config", "{tmp}/tol.ini"],
     ["simulate", "[integration] tol = '1e-9'"]),
    (["steady", "--config", "{tmp}/h_t.ini"],
     ["steady", "[integration] h_t = '1e-3'"]),
    (["bifurcate", "--dw", "0.1", "--config", "{tmp}/bif_model.ini"],
     ["bifurcate", "[model] d_w = '80'"]),
    (["spectral", "--L", "1", "--config", "{tmp}/grid_n.ini"],
     ["spectral", "section [grid]", "[grid] n = '300'"]),
    # every command caps its grids at the dense limit
    (["steady", "--L", "1e6"], ["3000000 nodes", "4096"]),
    (["simulate", "--variant", "local", "--nodes", "5000"],
     ["5000 nodes", "4096"]),
    (["sweep", "--points", "1", "--L-min", "1e6", "--L-max", "1e6"],
     ["8000000 nodes", "4096"]),
    (["bifurcate", "--L", "1e6", "--dw", "0.1"], ["3000000 nodes", "4096"]),
    # node counts past the float range
    (["steady", "--L", "1e308"], ["inf nodes", "4096"]),
    (["sweep", "--points", "1", "--L-min", "1e308", "--L-max", "1e308"],
     ["inf nodes", "4096"]),
    (["bifurcate", "--L", "1e308", "--dw", "0.1"], ["inf nodes", "4096"]),
    # --check needs both diffusion rates it tests; nothing is traced
    (["bifurcate", "--check", "--config", "{tmp}/no_dw.ini"],
     ["--check", "d_w_values", "got none"]),
    (["bifurcate", "--check", "--dw", "80"], ["--check", "got 80.0"]),
    (["bifurcate", "--check", "--dw", "0.1"], ["--check", "got 0.1"]),
    (["bifurcate", "--dw", "0.1", "--config", "{tmp}/point_cap.ini"],
     ["point_cap", "0"]),
    (["bifurcate", "--dw", "0.1", "--config", "{tmp}/stride.ini"],
     ["stability_stride", "-1"]),
    (["bifurcate", "--dw", "0.1", "--snapshot-stride", "-2"],
     ["--snapshot-stride", "-2"]),
    # A < 2B: no vegetated equilibrium for the cosine start to perturb
    (["steady", "--L", "2", "--nodes", "9", "--B", "1"],
     ["--init cosine", "A >= 2B"]),
    (["sweep", "--preset", "fast", "--config", "{tmp}/dry.ini"],
     ["sweep", "A >= 2B", "B = 1.0"]),
    # step counts that would never finish
    (["simulate", "--L", "2", "--nodes", "9", "--t-final", "1e300"],
     ["t_final / h_t", "1e+302", "10,000,000"]),
    (["simulate", "--L", "2", "--nodes", "9", "--t-final", "0.05",
      "--ht", "1e-300"], ["t_final / h_t", "5e+298", "10,000,000"]),
    # grid spacings whose square underflows
    (["spectral", "--L", "1e-300"], ["spacing", "underflows"]),
    (["sweep", "--points", "1", "--L-min", "1e-300", "--L-max", "1e-300"],
     ["spacing", "underflows"]),
    (["steady", "--L", "1e-200", "--nodes", "3"], ["spacing", "underflows"]),
    (["simulate", "--L", "1e-300"], ["spacing", "underflows"]),
    # a file value is cast even when a flag overrides it
    (["bifurcate", "--dw", "80", "--L", "5", "--config", "{tmp}/dw_abc.ini"],
     ["[bifurcation] d_w_values = 'abc'"]),
    (["steady", "--L", "5", "--nodes", "21", "--A", "1.8", "--config",
      "{tmp}/rain_x.ini"], ["[model] A = 'x'"]),
    # grid spacings at which d / h^2 would overflow ||F||_2
    (["steady", "--L", "1e-150"], ["spacing", "overflow"]),
    (["simulate", "--L", "1e-150"], ["spacing", "overflow"]),
    # every command takes its model and grid through the same checks
    (["bifurcate", "--L", "3", "--dw", "80", "--config", "{tmp}/arid.ini"],
     ["A >= 2B", "A = 3.0", "B = 1.6"]),
    (["sweep", "--preset", "fast", "--points", "1", "--config",
      "{tmp}/huge_dv.ini"], ["d_v / h^2", "overflow", "d_v = 1e+308"]),
    (["sweep", "--preset", "fast", "--L-min", "1e-140", "--L-max", "1e-139",
      "--points", "2"], ["spacing", "overflow"]),
    (["bifurcate", "--L", "3", "--dw", "1e308"],
     ["d_w / h^2", "overflow", "d_w = 1e+308"]),
    (["bifurcate", "--config", "{tmp}/no_dw.ini"],
     ["[bifurcation] d_w_values", "empty"]),
])
def test_bad_input_exits_2_without_traceback(argv, needles, tmp_path,
                                             monkeypatch, capsys):
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [tok.replace("{tmp}", str(tmp_path)) for tok in argv]
    assert run_cli(argv, monkeypatch, tmp_path) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    summary = json.loads(err)
    assert summary["error"] == "config"
    for needle in needles:
        assert needle in summary["message"]


def test_bifurcation_grid_has_at_least_3_nodes(tmp_path, monkeypatch):
    # floor(3 L) is 1 node at L = 0.5; bifurcate and steady both take 3
    assert run_cli(["bifurcate", "--L", "0.5", "--dw", "80", "--no-plots",
                    "--out", "bif"], monkeypatch, tmp_path) == 0
    assert run_cli(["steady", "--L", "0.5", "--out", "steady"], monkeypatch,
                   tmp_path) == 0
    bif = json.loads((tmp_path / "bif" / "manifest.json").read_text())
    steady = json.loads((tmp_path / "steady" / "manifest.json").read_text())
    assert bif["grid"]["N"] == steady["resolved"]["grid"]["N"] == 3


@pytest.mark.parametrize("family", ["beta1", "lambda1"])
def test_unconverged_spectrum_exits_3_naming_the_width(family, tmp_path,
                                                       monkeypatch, capsys):
    import vegpatch.cli as cli
    from vegpatch.spectral import EigResult

    solver = {"beta1": "principal_eigenvalue_nonlocal",
              "lambda1": "principal_eigenvalue_laplacian"}[family]
    monkeypatch.setattr(cli, solver,
                        lambda op: EigResult(0.5, 1e-3, 7, converged=False))
    code = run_cli(["spectral", "--L", "2", "--spacing", "0.1", "--out",
                    "spec"], monkeypatch, tmp_path)
    assert code == 3
    summary = json.loads(capsys.readouterr().err)
    assert summary["error"] == "numerical"
    assert summary["type"] == "EigenNotConverged"
    assert family in summary["message"] and "--L 2.0" in summary["message"]
    assert not (tmp_path / "spec" / "spectral.csv").exists()


def test_spectral_manifest_records_each_width(tmp_path, monkeypatch):
    code = run_cli(["spectral", "--L", "1", "--L", "2", "--spacing", "0.1",
                    "--M", "0.3", "--out", "spec"], monkeypatch, tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "spec" / "manifest.json").read_text())
    widths = manifest["widths"]
    assert [w["L"] for w in widths] == [1.0, 2.0]
    assert [w["nodes"] for w in widths] == [21, 41]
    assert all(w["M"] == 0.3 for w in widths)
    assert all(w["krylov_dim"] >= 1 for w in widths)
    assert all(w["beta1_residual"] <= 1e-9 for w in widths)
    assert all(w["lambda1_residual"] <= 1e-9 for w in widths)
    for key in ("assemble_s", "beta1_s", "lipschitz_s"):
        assert all(w[key] >= 0.0 for w in widths)


def test_spectral_never_forms_the_dense_matrix(tmp_path, monkeypatch):
    # spacing 0.05 gives 1281 nodes; a dense K alone would take 13.1 MB
    tracemalloc.start()
    try:
        code = run_cli(["spectral", "--L", "32"], monkeypatch, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 1281 ** 2


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError):
        load_ini("/nonexistent/path.ini")


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("argv", [
    ["simulate", "--tol", "5"], ["simulate", "--max-steps", "3"],
    ["steady", "--ht", "1e-3"], ["steady", "--max-steps", "3"],
    ["sweep", "--ht", "1e-3"], ["sweep", "--max-steps", "3"],
    ["spectral", "--L", "1", "--workers", "1"], ["simulate", "--workers", "1"],
    ["steady", "--workers", "1"], ["bifurcate", "--workers", "1"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _synthetic_suite(flags, fold_after):
    """One local d_w = 80 desert branch: flags maps point index to stable,
    and a fold follows each index in fold_after."""
    from vegpatch.continuation import Branch, BranchPoint, Fold, Stability
    from vegpatch.experiments import BifurcationSuite, BranchRun

    points = [BranchPoint(index=i, A=3.0 - 0.1 * i, s=0.1 * i, max_v=0.0,
                          avg_v=0.0, avg_v_nodes=0.0, tangent_A=-1.0,
                          snapshot=np.zeros(2), snapshot_id=f"p{i}",
                          stability=(Stability(flags[i], -1.0, 1)
                                     if i in flags else None))
              for i in range(10)]
    folds = [Fold(s=0.1 * i + 0.05, A=3.0 - 0.1 * i, after_index=i)
             for i in fold_after]
    branch = Branch(points=points, folds=folds,
                    termination="parameter_exit",
                    label="local-none-dw80-desert")
    return BifurcationSuite(runs=[BranchRun("local", "", 80.0, "desert",
                                            branch)])


@pytest.mark.parametrize("flags, fold_after, fails", [
    ({0: True, 4: True, 9: True}, [], False),
    ({0: True, 4: False, 9: False}, [2], False),
    ({0: True, 4: False, 9: False}, [3], False),      # fold right before 4
    ({0: True, 4: False, 9: False}, [4], True),       # fold right after 4
    ({0: True, 4: False, 9: True}, [1, 6], False),
    ({0: True, 4: True, 9: False}, [1, 2], True),     # both folds before 4
    ({0: True, 4: False, 9: False}, [], True),
    ({0: True, 9: False}, [9], True),                 # fold past the last
    ({0: True, 2: True, 9: False}, [0, 1], True),
])
def test_stability_flips_only_across_a_fold(flags, fold_after, fails):
    from vegpatch.cli import _check_bifurcation
    from vegpatch.experiments import BifurcationConfig

    failures = _check_bifurcation(_synthetic_suite(flags, fold_after),
                                  BifurcationConfig())
    assert bool(failures) is fails
    if fails:
        assert len(failures) == 1
        assert "stability flips without a fold" in failures[0]
        assert "local-none-dw80-desert" in failures[0]


@pytest.mark.parametrize("errors, termination", [
    (["local-none-dw80 desert: Newton diverged"], "parameter_exit"),
    ([], "step_failure"),
    ([], "point_cap"),
])
def test_bifurcation_check_needs_every_branch_traced(errors, termination):
    from vegpatch.cli import _check_bifurcation
    from vegpatch.experiments import BifurcationConfig

    suite = _synthetic_suite({0: True, 9: True}, [])
    suite.errors = errors
    suite.runs[0].branch.termination = termination
    failures = _check_bifurcation(suite, BifurcationConfig())
    assert len(failures) == 1
    assert (errors[0] if errors else termination) in failures[0]


def _ini_text(resolved) -> str:
    """An INI file holding every key of a manifest's resolved block."""
    def value(v):
        return ", ".join(map(repr, v)) if isinstance(v, list) else str(v)
    return "".join(f"[{section}]\n" + "".join(f"{key} = {value(v)}\n"
                                              for key, v in items.items())
                   for section, items in resolved.items())


@pytest.mark.parametrize("argv, required", [
    (["spectral", "--L", "1", "--spacing", "0.1", "--M", "0.3"], 3),
    (["simulate", "--L", "2", "--nodes", "9", "--ht", "1e-3",
      "--t-final", "0.01"], 1),
    (["steady", "--L", "2", "--nodes", "9"], 1),
    (["sweep", "--preset", "fast", "--points", "1", "--L-min", "1",
      "--L-max", "1", "--no-plots"], 1),
    (["bifurcate", "--dw", "80", "--L", "5", "--no-plots"], 1),
])
def test_every_key_a_command_reads_is_accepted(argv, required, tmp_path,
                                               monkeypatch):
    # the resolved block, written back as a config file, reruns to itself
    assert run_cli(argv + ["--out", "first"], monkeypatch, tmp_path) == 0
    resolved = json.loads(
        (tmp_path / "first" / "manifest.json").read_text())["resolved"]
    ini = tmp_path / "resolved.ini"
    ini.write_text(_ini_text(resolved))
    assert run_cli(argv[:required] + ["--config", str(ini), "--out",
                                      "second"], monkeypatch, tmp_path) == 0
    rerun = json.loads((tmp_path / "second" / "manifest.json").read_text())
    assert rerun["resolved"] == resolved


def test_sweep_defaults_match_standard_experiment():
    # empty config resolves to the standard parameters and the 50-point
    # logarithmic ladder
    import argparse

    from vegpatch.cli import _sweep_config_from
    args = argparse.Namespace(preset=None, points=None, L_min=None,
                              L_max=None, threshold=None, workers=1,
                              config=None)
    cfg = _sweep_config_from(args, make_resolver(None))
    assert (cfg.A, cfg.B, cfg.d_v, cfg.d_w) == (1.8, 0.45, 2.0, 0.1)
    assert len(cfg.L_values) == 50
    assert cfg.L_values[0] == pytest.approx(1.0)
    assert cfg.L_values[-1] == pytest.approx(100.0)


@pytest.mark.slow
def test_sweep_check_failure_exits_4(tmp_path, monkeypatch):
    # a ladder that never reaches collapse cannot satisfy the regression
    # check: every variant stays vegetated, so no critical width exists
    code = run_cli(["sweep", "--preset", "fast", "--points", "2",
                    "--L-min", "5.0", "--L-max", "10.0",
                    "--out", "swfail", "--check"],
                   monkeypatch, tmp_path)
    assert code == 4


def test_output_root_env(monkeypatch):
    monkeypatch.setenv("VEGPATCH_OUT", "/tmp/vegpatch-root")
    assert resolve_output_dir("runs/x") == Path("/tmp/vegpatch-root/runs/x")
    assert resolve_output_dir("/abs/x") == Path("/abs/x")
    monkeypatch.delenv("VEGPATCH_OUT")
    assert resolve_output_dir("runs/x") == Path("runs/x")


@pytest.mark.slow
def test_sweep_defaults_and_outputs(tmp_path, monkeypatch):
    code = run_cli(["sweep", "--preset", "fast", "--points", "4",
                    "--L-min", "1.0", "--L-max", "4.0",
                    "--out", "sw"], monkeypatch, tmp_path)
    assert code == 0
    outdir = tmp_path / "sw"
    sweep_lines = (outdir / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0].startswith("variant,kernel,L,N,avg_biomass")
    assert len(sweep_lines) == 1 + 4 * 3
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["A"] == 1.8
    assert manifest["config"]["B"] == 0.45
    assert manifest["config"]["d_v"] == 2.0
    assert manifest["config"]["d_w"] == 0.1
    assert "grid_policy" in manifest and "wall_time_s" in manifest
    assert (outdir / "lcrit.csv").exists()
    assert (outdir / "plots" / "fig_patch_sweep.gp").exists()

    # determinism: identical config, identical bytes
    first = (outdir / "sweep.csv").read_bytes()
    code = run_cli(["sweep", "--preset", "fast", "--points", "4",
                    "--L-min", "1.0", "--L-max", "4.0",
                    "--out", "sw2"], monkeypatch, tmp_path)
    assert code == 0
    assert (tmp_path / "sw2" / "sweep.csv").read_bytes() == first


@pytest.mark.slow
def test_bifurcate_defaults_and_outputs(tmp_path, monkeypatch, capsys):
    code = run_cli(["bifurcate", "--dw", "80", "--out", "bf"],
                   monkeypatch, tmp_path)
    assert code == 0
    outdir = tmp_path / "bf"
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["grid"] == {"L": 25.0, "N": 75}
    # per-branch counters in the manifest, one progress line per branch
    branches = manifest["branches"]
    assert len(branches) == 6
    progress = [ln for ln in capsys.readouterr().err.splitlines()
                if ln.startswith("branch ")]
    assert len(progress) == 6
    for label, row in branches.items():
        assert row["termination"] == "parameter_exit"
        # a tangent per point, plus each accepted corrector iteration
        assert row["bordered_solves"] >= (row["points"]
                                          + row["corrector_iterations"])
        assert row["halvings"] >= 0 and row["wall_s"] > 0
        # stride-25 flags plus the last point, one eigen-solve each
        assert row["eigen_solves"] == len(range(0, row["points"] - 1, 25)) + 1
        assert row["krylov_dim_total"] >= row["eigen_solves"]
        assert any(ln.startswith(f"branch {label}: {row['points']} points, "
                                 f"{row['halvings']} halvings, ")
                   for ln in progress)
    branch_lines = (outdir / "branch.csv").read_text().splitlines()
    assert branch_lines[0] == ("model,kernel,branch_id,point_index,arclength,"
                               "A,max_v,avg_v,avg_v_nodes,stable")
    assert any("dw80-vegetated" in ln for ln in branch_lines[1:])
    assert (outdir / "folds.csv").exists()
    # one diagnostics row per flagged point, its flag in branch.csv
    diag = (outdir / "branch_diagnostics.csv").read_text().splitlines()
    assert diag[0] == "branch,point_index,A,rightmost_real,krylov_dim"
    assert len(diag) - 1 == sum(r["eigen_solves"] for r in branches.values())
    flagged = sum(ln.endswith((",true", ",false")) for ln in branch_lines)
    assert flagged == len(diag) - 1
    for label, row in branches.items():
        rows = [ln.split(",") for ln in diag[1:] if ln.startswith(label + ",")]
        assert sum(int(r[4]) for r in rows) == row["krylov_dim_total"]
    profiles = list((outdir / "profiles").glob("gallery-*.csv"))
    assert profiles


# Every key some command reads, lower-cased as configparser returns them,
# then keys no command reads.
_INI_KEYS = ["a", "b", "d_v", "d_w", "d_w_values", "ds0", "ds_max", "ds_min",
             "gallery_a", "h_t", "kernel", "l", "l_max", "l_min", "n",
             "newton_tol", "point_cap", "points", "preset",
             "stability_stride", "t_final", "threshold", "tol",
             "trajectory_every", "variant", "scheme", "aa", "kernal"]
_INI_SECTIONS = ["bifurcation", "continuation", "grid", "integration",
                 "model", "sweep", "modle"]
_INI_VALUES = ["nan", "inf", "-1", "0", "3", "1e-3", "abc"]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.sampled_from(_INI_SECTIONS),
    st.dictionaries(st.sampled_from(_INI_KEYS), st.sampled_from(_INI_VALUES),
                    max_size=4),
    max_size=4))
def test_random_ini_files_never_end_in_a_traceback(sections):
    # any mix of known and unknown sections, keys and values ends in a run,
    # a configuration error or a numerical failure
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                           for key, value in items.items())
                   for name, items in sections.items())
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "random.ini"
        ini.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["steady", "--config", str(ini), "--L", "2",
                         "--nodes", "9", "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()


_NUMBERS = st.one_of(
    st.floats(min_value=1e-3, max_value=100.0),           # finite
    st.sampled_from([0.0, -0.0, -1e-3, -2.0, -1e300,     # zero, negative
                     math.nan, math.inf, -math.inf,       # nan, inf
                     1e10, 1e200, 1e300, 1.7e308]))       # huge


@settings(max_examples=25, deadline=None, derandomize=True)
@given(command=st.sampled_from(["steady", "simulate"]),
       variant=st.sampled_from(["nonlocal", "local"]),
       L=st.floats(min_value=0.1, max_value=5.0),
       nodes=st.integers(min_value=-1, max_value=41),
       t_final=st.floats(min_value=0.0, max_value=0.05),
       step_or_tol=st.one_of(st.none(), _NUMBERS),
       model=st.fixed_dictionaries(
           {}, optional={flag: _NUMBERS for flag in
                         ("--dv", "--dw", "--A", "--B")}))
def test_random_flags_never_end_in_a_traceback(command, variant, L, nodes,
                                               t_final, step_or_tol, model):
    # any mix of finite, zero, negative, non-finite and huge model flags
    # ends in a run, a configuration error or a numerical failure; simulate
    # alone takes --ht and steady alone --tol
    argv = [command, "--variant", variant, f"--L={L!r}",
            f"--nodes={nodes}"]
    if command == "simulate":
        argv.append(f"--t-final={t_final!r}")
    if step_or_tol is not None:
        flag = "--ht" if command == "simulate" else "--tol"
        argv.append(f"{flag}={step_or_tol!r}")
    argv += [f"{flag}={value!r}" for flag, value in model.items()]
    with tempfile.TemporaryDirectory() as tmp:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(["a", "b", "d_v", "d_w", "aa"]),
                       st.sampled_from(_INI_VALUES), max_size=2))
@example({"b": "3"})    # A_start = 3 < 2B
def test_random_model_sections_never_end_a_bifurcation_in_a_traceback(
        model):
    # bifurcate reads [model] B and d_v only; any values end in a run, a
    # configuration error or a numerical failure.  The point cap bounds a
    # run: at B = d_v = 1e-3 a branch takes 14,000 points.
    text = "[continuation]\npoint_cap = 200\n[model]\n" + "".join(
        f"{key} = {value}\n" for key, value in model.items())
    with tempfile.TemporaryDirectory() as tmp:
        ini = Path(tmp) / "model.ini"
        ini.write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["bifurcate", "--L", "2", "--dw", "80", "--config",
                         str(ini), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3), text
    assert "Traceback" not in err.getvalue(), text
