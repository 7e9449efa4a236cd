"""What importing the library pulls in.

``scipy.stats`` alone adds ~35 MB of resident memory to a process; the
broker, the fault machinery and the experiment configuration run
without it (the one ``kstest``/``linregress`` and the mixture density
import it where they are called).
"""

from __future__ import annotations

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_core_imports_leave_scipy_stats_out():
    program = (
        "import sys\n"
        "import repro.core.broker, repro.faults, repro.experiments.config\n"
        "print([m for m in sys.modules if m.startswith('scipy.stats')])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
