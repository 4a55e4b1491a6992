import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(ROOT.glob("demos/0[1-6]_*.py"))
# sha256 of the stdout of the seeded certificate, fibre and matrix demos
STDOUT_DIGESTS = {
    "04_container_certificates.py": "8a9e6aedcfa2c9b13d24955c0aa62bf1d143af689f01b1cdabe13624ffa12836",
    "05_fibre_partition.py": "042d3bc25bb955d58bfa0990a984db793360379174b5709ee8e0827b1e085d79",
    "06_matrix_singularity.py": "ff5fcfa42b9309efef0b110aa5c35f115f7ace559aad4254d1ebbb05829532f1",
}


def test_demo_set():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
