"""Let the CLI subprocesses that tests start import the package from src/.

`pythonpath` in pyproject.toml only reaches the pytest process itself; the
`python -m jacsum` children find the package through PYTHONPATH, so a bare
`pytest` works from a fresh checkout without installing the package.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
