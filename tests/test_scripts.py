import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_expansion_sweep_smoke():
    got = subprocess.run(
        [sys.executable, str(SCRIPTS / "expansion_sweep.py"), "--seeds", "1"],
        capture_output=True,
        text=True,
    )
    assert got.returncode == 0, got.stderr
    assert got.stderr == ""
    header, *rows = got.stdout.splitlines()
    assert header.split() == ["expansion", "gamma", "mean", "ACC", "std", "err"]
    assert len(rows) == 10  # 5 expansion sizes x 2 ridge strengths
