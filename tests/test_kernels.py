"""``tools/kernels.py`` with one call per loop: every kernel is timed at
every size, each build at its five, and the script stays apart from the
benchmark."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernels.py"
KERNELS = ("g_value_grad", "g_value", "phi_value", "grad_h", "g_hessian", "spd_solve")
SIZES = ["synthetic_m20_n30_s101", "synthetic_m40_n60_s103", "synthetic_m80_n120_s105",
         "synthetic_m200_n300_s107"]


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=120)


def test_every_kernel_at_every_size():
    done = run_tool("--calls", "2", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "median of 1 round-robin loops of 2 calls, µs per call, one BLAS thread"
    assert lines[5] == "median of 1 round-robin builds, ms per build, one BLAS thread"
    for rows, names, timings in ((lines[1:5], SIZES, KERNELS),
                                 (lines[6:], SIZES + ["synthetic_m400_n600_s109"],
                                  ("generate", "objective", "hessian_op"))):
        assert [row.split(":")[0] for row in rows] == names
        for row in rows:
            timed = re.findall(r"(\w+) ([0-9.]+)", row.split(":", 1)[1])
            assert tuple(name for name, _ in timed) == timings
            assert all(float(value) > 0.0 for _, value in timed)


def test_counts_must_be_positive():
    done = run_tool("--calls", "0")
    assert done.returncode == 2
    assert "must be positive" in done.stderr


def test_benchmark_untouched():
    assert "perfbench" not in TOOL.read_text(encoding="utf-8")
