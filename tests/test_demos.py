import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# demo 06 is left out: its Monte Carlo runs take about 7 s, while 01-05
# together take about 2 s
DEMOS = sorted(ROOT.glob("demos/0[1-5]_*.py"))
# sha256 of the stdout of the seeded certificate and fibre demos
STDOUT_DIGESTS = {
    "04_container_certificates.py": "8a9e6aedcfa2c9b13d24955c0aa62bf1d143af689f01b1cdabe13624ffa12836",
    "05_fibre_partition.py": "042d3bc25bb955d58bfa0990a984db793360379174b5709ee8e0827b1e085d79",
}


def test_demo_set():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
