import json
import math

import numpy as np
import pytest

from vegpatch.continuation import Branch, BranchPoint
from vegpatch.experiments import BifurcationSuite, BranchRun
from vegpatch.outputs import write_manifest, write_plot_scripts


def test_manifest_writes_non_finite_numbers_as_null(tmp_path):
    write_manifest(tmp_path / "manifest.json", {
        "nan": math.nan, "inf": -math.inf, "np_nan": np.float64("nan"),
        "np_inf": np.float32("inf"), "finite": np.float64(0.1),
        "nested": {"row": (1.5, math.nan)}, "array": np.array([2.0, np.nan])})

    def reject(name):
        raise ValueError(f"{name} is not JSON")
    manifest = json.loads((tmp_path / "manifest.json").read_text(),
                          parse_constant=reject)
    assert [manifest[k] for k in ("nan", "inf", "np_nan", "np_inf")] == [
        None] * 4
    assert manifest["finite"] == 0.1
    assert manifest["nested"] == {"row": [1.5, None]}
    assert manifest["array"] == [2.0, None]


@pytest.mark.parametrize("B, two_b", [(0.5, "1.0"), (0.45, "0.9")])
def test_branch_script_uses_the_runs_mortality(B, two_b, tmp_path):
    points = [BranchPoint(index=i, A=a, s=0.1 * i, max_v=2.0, avg_v=1.0,
                          avg_v_nodes=1.0, tangent_A=-1.0,
                          snapshot=np.zeros(6), snapshot_id=f"b-p{i:05d}")
              for i, a in enumerate((2.0, 1.9))]
    suite = BifurcationSuite(runs=[BranchRun("nonlocal", "laplace", 80.0,
                                             "vegetated", Branch(points))])
    write_plot_scripts(tmp_path, suite=suite, B=B)
    script = (tmp_path / "fig_branches_dw80.gp").read_text()
    assert f"set arrow from {two_b}, graph 0 to {two_b}, graph 1" in script
    assert f"  {B!r}/x with lines lc rgb 'red' title 'B/A'" in script
