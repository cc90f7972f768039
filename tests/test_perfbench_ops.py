"""The benchmark's ops must run and pass their own checks.

``perfbench/workloads.py`` reads the library's results by name (scene
elements, the partition labels, the fitted plane, ``F_pts``, ``F_elem``,
the gradient names), so a change that renames or reshapes one of them
would make every benchmark op fail.  These tests run one op of a scene
workload and one fusion training step at toy size.
"""

import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["small_scenes", "fusion_train"])
def test_op_passes_the_benchmark_checks(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    wl = workloads.WORKLOADS["tiny"][name]
    workloads.generate_inputs(wl, 3, tmp_path)
    runner = workloads.make_runner(wl, tmp_path)
    runner.warm_up()
    first, again = runner.run(0), runner.run(0)
    assert runner.check(first) == []
    assert runner.round_trip(first) == []
    assert runner.digest(first) == runner.digest(again)
    counts = runner.counts(first, 0)
    assert counts and all(math.isfinite(v) for v in counts.values())
    assert runner.f_elem_itemsize(first) == 4
