"""What importing the command-line entry point loads.

``scipy.stats`` costs most of the start-up time and tens of MB of
resident memory, and only the studies' paired t-test needs a t
distribution; the test imports ``scipy.special`` on its first call.
"""

import os
import subprocess
import sys
from pathlib import Path

import conet

SRC = str(Path(conet.__file__).resolve().parents[1])


def test_cli_import_leaves_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    probe = ("import sys, conet.cli; "
             "print(','.join(m for m in ('scipy.stats', 'scipy.special') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""
