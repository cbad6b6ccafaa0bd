"""The benchmark's output contract: every smoke workload, traced or not, ends in its JSON result."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

_RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# the infer workload runs no no-grad forward at batch 128, so that per-layer metric has no value
_NULL = {("infer", 1): {"model.forward_nograd_ms.b128"}}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["train", "eval", "infer"])
def test_smoke_run_ends_in_its_json_result(workload, trace):
    # stderr is merged, as a reader of the combined output sees it: a warning printed
    # after the result would make the last line something else
    proc = subprocess.run([sys.executable, str(_RUN), "--smoke", "--workload", workload, "--trace", str(trace)],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    nulls = {name for name, metric in result["metrics"].items() if metric["value"] is None}
    assert nulls == _NULL.get((workload, trace), set())
