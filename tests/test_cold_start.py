"""Cold start: the runner, the engine and the fabric import no numpy.

The package's runtime is the standard library alone; importing numpy would
add its import time and resident memory to every CLI start and every
fresh pool worker.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_core_imports_do_not_pull_in_numpy():
    code = (
        "import sys\n"
        "import repro.experiments.runner, repro.sim.engine, repro.fabric\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"
