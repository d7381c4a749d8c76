"""Every jbkit name the benchmark's tracer patches is still bound.

perfbench/tracer.py wraps jbkit functions through ``owner.__dict__``,
including bindings that jbkit itself no longer calls, so a refactor
that drops one breaks only the traced benchmark.  Installing the tracer
in a fresh process catches that here.  Reading the final counts there
too catches a moved cache: they read the assembly caches of
jbkit.jbcomplex.assemble and three lru_caches of jbkit.freelie.  A traced
``bch --tri`` checks that the table and trivariate spans still record
their calls, so a changed signature cannot zero those metrics silently.

The tracer's assembly hook reads the matrix of every degree, so a traced
``jb cohomology``, which by itself assembles only two degrees, and a
traced ``jb check``, which by itself assembles none, still record the
shape of the whole complex for the shape gate.
"""

import json
import subprocess
import sys
from pathlib import Path

from jbkit.jbcomplex import factories, jb_assemble

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


_COHOMOLOGY = """
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from jbkit import cli
tr = tracer.Tracer()
tracer.install(tr)
assert cli.run(["jb", "cohomology", "--data", sys.argv[3], "--degree", "0"]) == 0
print(json.dumps(tr.shapes))
"""


def _traced(script, sela, tmp_path):
    """The last stdout line of script, run traced on sela's JSON file, as JSON."""
    path = tmp_path / "sela.json"
    path.write_text(json.dumps(sela.to_json()))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _every_shape(sela):
    jb = jb_assemble(sela)
    return {
        str(n): [jb.matrix(n).nrows, jb.matrix(n).ncols, len(jb.matrix(n).entries)]
        for n in jb.degrees()
    }


def test_traced_cohomology_records_every_degree(tmp_path):
    sela = factories.dg_triangle(4)
    (record,) = _traced(_COHOMOLOGY, sela, tmp_path)
    assert record["shapes"] == _every_shape(sela)


_CHECK = """
import contextlib
import io
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from jbkit import cli
tr = tracer.Tracer()
tracer.install(tr)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["jb", "check", "--data", sys.argv[3]]) == 0
print(json.dumps({"shapes": tr.shapes, "summary": tr.summary(0.0)}))
"""


def test_traced_check_records_every_degree_and_its_span(tmp_path):
    sela = factories.dg_triangle(4)
    traced = _traced(_CHECK, sela, tmp_path)
    (record,) = traced["shapes"]
    assert record["shapes"] == _every_shape(sela)
    assert traced["summary"]["jbcomplex.verify_d_squared.calls"] == 1


_TRIVARIATE = """
import contextlib
import io
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from jbkit import cli
tr = tracer.Tracer()
tracer.install(tr)
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["bch", "--max-degree", "4", "--tri"]) == 0
print(json.dumps(tr.summary(0.0)))
"""


def test_traced_trivariate_table_records_its_spans():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRIVARIATE, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["bch.build_table.calls"] >= 1
    assert summary["bch.trivariate.calls"] == 1
    assert summary["bch.build_table.max_degree"] == 4


_OBSTRUCT = """
import contextlib
import io
import json
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import tracer
from jbkit import cli
tr = tracer.Tracer()
tracer.install(tr)
argv = ["jb", "obstruct", "--data", sys.argv[3], "--from-order", "2", "--to-order", "4"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(argv) == 1
print(json.dumps(tr.summary(0.0)))
"""


def test_traced_obstruction_step_records_its_solve(tmp_path):
    # one obstructed step, so one solve: a change to solve's shape or
    # imports cannot zero the benchmark's solve counters silently
    taut = [{"name": "u0", "power": 1, "coeff": "1"}]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({
        "sela": factories.obstructed_triangle(2).to_json(),
        "psi": {"01": taut, "02": taut, "12": taut},
    }))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _OBSTRUCT, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["exactnum.solve.calls"] == 1
