"""The demos print pinned bytes and exit 0.

Each demo runs in a child interpreter (`sys.executable`), which finds the
package through the PYTHONPATH that conftest.py sets; its stdout is
compared by SHA-256.  The digests are the same on CPython 3.10-3.13.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_sequence_basics.py": "087b8a185d065b58f2da6ccc13347aad7b4f94f4380cfd5cf9a47b22859fd5c7",
    "02_identity_checks.py": "524d52036ea22bf69822ea742a04a4fa59b105a8adbbc3a4997c3051e763fe81",
    "03_series_enclosures.py": "ad95d024941b96f626f6435767688c858e8a78f0dd7cd611f1e26b9ab6d7c801",
    "04_theorem_verdicts.py": "a212671c8c714b0837661ff4784068fb7991d82474bc53065f4f2b6c4b03d099",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_prints_pinned_bytes(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True, check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
