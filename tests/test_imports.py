"""What importing the package loads.

Only wavio needs scipy, and it imports scipy.io on first use. Every other
module runs on numpy alone; scipy.signal (which pulls in scipy.stats) and
scipy.io cost a process some 75 MB and over a second to import, so none of them
may come back into the import graph unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import mcse

MODULES = ("cli", "train", "baselines", "metrics", "simkit", "checkpoint", "pipeline")
SCIPY_HEAVY = ("scipy.signal", "scipy.fft", "scipy.io")


def test_package_imports_no_scipy_signal_fft_or_io():
    code = (
        "import sys\n"
        f"for m in {MODULES!r}:\n"
        "    __import__('mcse.' + m)\n"
        f"print(' '.join(sorted(m for m in sys.modules if m.startswith({SCIPY_HEAVY!r}))))\n"
    )
    src = str(Path(mcse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == []
