import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke_run_passes():
    # perfbench drives the engine through lca globals and Stats fields; an
    # engine change that drops one should fail here, not in a benchmark run.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "smoke.py")],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
