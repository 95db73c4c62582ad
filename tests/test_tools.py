"""The scripts in tools/ run end to end against this tree."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_op_split_times_two_trees():
    script = ROOT / "tools" / "op_split.py"
    argv = [sys.executable, str(script), "--ops", "5", "--rounds", "1", "--against", str(ROOT)]
    result = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    title, head, *rows = result.stdout.splitlines()
    assert title.startswith("5 check ops of check_sweep seed 5506")
    assert head.split()[-1] == "ratio"
    assert [row.split()[0] for row in rows] == ["parse", "read", "bounds", "render", "op"]
    for row in rows:
        tree, against, ratio = map(float, row.split()[1:])
        assert tree > 0 and against > 0 and ratio > 0
