"""Every jbkit name the benchmark's tracer patches is still bound.

perfbench/tracer.py wraps jbkit functions through ``owner.__dict__``,
including bindings that jbkit itself no longer calls, so a refactor
that drops one breaks only the traced benchmark.  Installing the tracer
in a fresh process catches that here.  Reading the final counts there
too catches a moved cache: they read the assembly caches of
jbkit.jbcomplex.assemble and three lru_caches of jbkit.freelie.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
tr = tracer.Tracer()
tracer.install(tr)
tracer.final_counts(tr)
"""


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _INSTALL, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
