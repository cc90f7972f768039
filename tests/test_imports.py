"""scipy's modules load on first use, not when scenetok is imported.

``import scenetok`` loads numpy only; ``scipy.spatial`` (KD-tree, hull)
loads with the first decomposition call and ``scipy.sparse`` with the
first pooling call.  Each check runs in a fresh interpreter, since the
test process has long since loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scenetok
from scenetok.cli import cli_main

SRC = str(Path(scenetok.__file__).resolve().parent.parent)

# Prints the scipy modules loaded so far, as a JSON list.
LOADED = ("import json, sys; print(json.dumps(sorted(m for m in sys.modules "
          "if m == 'scipy' or m.startswith('scipy.'))))")


def loaded_after(code: str, cwd=None) -> list[list[str]]:
    """The scipy modules a fresh interpreter has loaded at each ``LOADED``
    line of ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("[")]


def test_import_loads_no_scipy_module():
    assert loaded_after(f"import scenetok, scenetok.cli\n{LOADED}") == [[]]


def test_training_step_loads_no_scipy_spatial():
    code = f"""
import numpy as np
from scenetok import init_fusion_params
from scenetok.fusion import fusion_loss_and_grads
rng = np.random.default_rng(0)
n_elem, T, D = 4, 3, 8
params = init_fusion_params(T=T, D=D, seed=0)
P_ind = np.stack([rng.integers(0, T, 30), rng.integers(0, n_elem, 30)], 1)
loss, _ = fusion_loss_and_grads(
    params, rng.normal(size=(30, 3)), P_ind, rng.normal(size=(n_elem, T, 7)),
    rng.normal(size=(n_elem, T, D)), rng.random((n_elem, T)) > 0.3)
assert np.isfinite(loss)
{LOADED}
"""
    (loaded,) = loaded_after(code)
    assert "scipy.sparse" in loaded  # the point pool ran
    assert not any(m.startswith("scipy.spatial") for m in loaded)


def test_first_clustering_call_loads_scipy_spatial():
    code = f"""
import numpy as np
from scenetok import cluster_open_set
{LOADED}
labels = cluster_open_set(np.random.default_rng(0).normal(size=(20, 3)),
                          radius=0.5, min_points=1)
assert labels.shape == (20,)
{LOADED}
"""
    before, after = loaded_after(code)
    assert not any(m.startswith("scipy.spatial") for m in before)
    assert "scipy.spatial" in after


def test_synth_ablate_inspect_load_no_scipy_spatial(tmp_path):
    spec = dict(n_agents=3, n_clutter=3, T=5, area_m=50.0, cameras=2, D=8,
                ground_points_per_frame=300, agent_points=80,
                clutter_points=40)
    config = dict(T=5, D=8, n_elem_agent=8, n_elem_openset=16,
                  n_elem_ground=64, n_pts_ground=1500, n_pts_agent=800,
                  n_pts_openset=500)
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "config.json").write_text(json.dumps(config))
    # the token file is made here: tokenizing loads scipy.spatial
    assert cli_main(["synth", "--seed", "4", "--spec",
                     str(tmp_path / "spec.json"), "--out",
                     str(tmp_path / "made")]) == 0
    assert cli_main(["tokenize", "--scene", str(tmp_path / "made"),
                     "--config", str(tmp_path / "config.json"), "--out",
                     str(tmp_path / "x.tokens")]) == 0
    code = f"""
from scenetok.cli import cli_main
for argv in (["synth", "--seed", "4", "--spec", "spec.json", "--out", "s"],
             ["ablate", "--scene", "s", "--drop-agents", "0.5", "--out", "a"],
             ["inspect", "--tokens", "x.tokens"]):
    assert cli_main(argv) == 0, argv
    {LOADED}
"""
    per_command = loaded_after(code, cwd=tmp_path)
    assert len(per_command) == 3
    for loaded in per_command:
        assert not any(m.startswith("scipy.spatial") for m in loaded)
