"""What importing the package loads.

Only wavio needs scipy, and it imports scipy.io on first use. Every other
module runs on numpy alone; scipy.signal (which pulls in scipy.stats) and
scipy.io cost a process some 75 MB and over a second to import, so none of them
may come back into the import graph unnoticed.

The classical half (baselines, the simulator, the scorers, the DSP front end
and WAV I/O) runs without the learned half: importing it loads neither the
autodiff engine nor the network. `import mcse` itself loads no submodule.
"""

import os
import subprocess
import sys
from pathlib import Path

import mcse

MODULES = ("cli", "train", "baselines", "metrics", "simkit", "checkpoint", "pipeline")
SCIPY_HEAVY = ("scipy.signal", "scipy.fft", "scipy.io")
CLASSICAL = ("baselines", "simkit", "metrics", "dsp", "wavio")
LEARNED = ("mcse.tensor", "mcse.layers", "mcse.crn", "mcse.pipeline")


def run_python(code: str) -> str:
    """stdout of a fresh interpreter running code with this mcse on its path."""
    src = str(Path(mcse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return done.stdout


def test_package_imports_no_scipy_signal_fft_or_io():
    code = (
        "import sys\n"
        f"for m in {MODULES!r}:\n"
        "    __import__('mcse.' + m)\n"
        f"print(' '.join(sorted(m for m in sys.modules if m.startswith({SCIPY_HEAVY!r}))))\n"
    )
    assert run_python(code).split() == []


def test_classical_modules_load_no_learned_module():
    code = (
        "import sys\n"
        "import mcse\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('mcse.'))))\n"
        f"for m in {CLASSICAL!r}:\n"
        "    __import__('mcse.' + m)\n"
        f"print(' '.join(sorted(m for m in sys.modules if m in {LEARNED!r})))\n"
    )
    alone, learned = run_python(code).split("\n")[:2]
    assert alone == ""
    assert learned == ""
