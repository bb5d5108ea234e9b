"""The package imports without scipy.

Only :mod:`repro.theory` needs scipy (``lambertw``); ``import repro`` and
the engine subpackages must not, so a spawned sharded worker does not pay
for ``scipy.stats`` and a bare install without scipy still imports.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

BLOCKED_SCIPY_IMPORT = """
import sys
sys.modules["scipy"] = None  # any ``import scipy...`` now raises ImportError
import repro, repro.core, repro.walks, repro.service
print("imported")
"""


def test_engine_packages_import_without_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", BLOCKED_SCIPY_IMPORT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "imported"
