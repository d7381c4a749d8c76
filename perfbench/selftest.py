"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a jbkit checkout.  They hold the generator to its
promises (same seed, same bytes; other seed, same sizes and expected
answers; every datum valid), show that the layer wrappers change no
output byte and that their counts repeat, and that BENCHMARK.json names
exactly the metrics the runner prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from jbkit.jbcomplex import Sela, factories  # noqa: E402


def _env(hash_seed="0"):
    env = run._env(ROOT)
    env["PYTHONHASHSEED"] = hash_seed
    return env


def _generate_in_subprocess(workload, seed, workdir, hash_seed):
    code = "import workloads; workloads.generate(%r, %d, %r, %r)" % (
        workload, seed, str(workdir), "inputs")
    env = _env(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([HERE, env["PYTHONPATH"]])
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
    return {name: (workdir / name).read_bytes() for name in sorted(os.listdir(workdir))}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_bytes(tmp_path, workload):
    a = _generate_in_subprocess(workload, 5, tmp_path / "a", "1")
    b = _generate_in_subprocess(workload, 5, tmp_path / "b", "2")
    assert a == b


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_gives_same_sizes_and_answers(tmp_path, workload):
    a = workloads.generate(workload, 5, str(tmp_path / "a"), "a")
    b = workloads.generate(workload, 6, str(tmp_path / "b"), "b")
    assert [job["argv"] for job in a] != [job["argv"] for job in b]
    for x, y in zip(a, b):
        assert (x["id"], x["cmd"], x["size"], x["check"]) == (y["id"], y["cmd"], y["size"], y["check"])
    assert len(a) == len(b)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_data_validate(tmp_path, workload):
    workloads.generate(workload, 7, str(tmp_path), "x")
    checked = 0
    for name in os.listdir(tmp_path):
        data = json.loads((tmp_path / name).read_text())
        data = data.get("sela", data)
        if "indices" in data:
            assert Sela.from_json(data).validate() == []
            checked += 1
    assert checked == {"series": 1, "cohomology": 6, "check": 4}[workload]


def test_scaled_datum_keeps_its_complex(tmp_path):
    """Same chain dimensions and nnz pattern sizes, other coefficients."""
    import random

    from jbkit.jbcomplex import jb_assemble

    plain = jb_assemble(factories.nonabelian_triangle(3))
    scaled = jb_assemble(workloads.scaled_sela(factories.nonabelian_triangle(3), random.Random(1)))
    assert plain.degrees() == scaled.degrees()
    for deg in plain.degrees():
        a, b = plain.matrix(deg), scaled.matrix(deg)
        assert (a.nrows, a.ncols, set(a.entries)) == (b.nrows, b.ncols, set(b.entries))
    assert any(plain.matrix(d).entries != scaled.matrix(d).entries for d in plain.degrees())


def _small_jobs(workdir):
    """Cheap jobs touching every wrapped layer."""
    import random

    rng = random.Random(3)
    sela_path = workdir / "sela.json"
    sela_path.write_text(json.dumps(
        workloads.scaled_sela(factories.nonabelian_triangle(3), rng).to_json()))
    fam, _ = workloads.gauge_family(factories.nonabelian_triangle(3), rng)
    fam_path = workdir / "family.json"
    fam_path.write_text(json.dumps(fam))
    argvs = [
        ["bch", "--max-degree", "5", "--tri"],
        ["deform", "lift", "--vars", "x,y", "--poly", "x^3+y^4", "--direction", "x*y",
         "--to-order", "4"],
        ["milnor", "--vars", "x,y,z", "--poly", "x^2+y^3+z^3"],
        ["tangent-dgla", "--vars", "x,y,z", "--poly", "x^2+y^3+z^3", "--truncate", "3"],
        ["jb", "check", "--data", str(sela_path)],
        ["jb", "cohomology", "--data", str(sela_path), "--degree", "-1"],
        ["jb", "cocycle", "--data", str(fam_path)],
        ["jb", "obstruct", "--data", str(fam_path), "--from-order", "3", "--to-order", "4"],
    ]
    jobs = [{"id": "t%d" % n, "cmd": a[0], "argv": a} for n, a in enumerate(argvs)]
    path = workdir / "jobs.json"
    path.write_text(json.dumps({"jobs": jobs}))
    return path


def _worker(jobs_path, out, spans=None):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), str(jobs_path), str(out)]
    if spans:
        cmd += ["--trace", str(spans)]
    subprocess.run(cmd, cwd=ROOT, env=_env(), check=True, timeout=300)
    return json.loads(out.read_text())


def test_wrappers_change_no_output_and_counts_repeat(tmp_path):
    jobs = _small_jobs(tmp_path)
    plain = _worker(jobs, tmp_path / "plain.json")
    first = _worker(jobs, tmp_path / "t1.json", tmp_path / "s1.json")
    second = _worker(jobs, tmp_path / "t2.json", tmp_path / "s2.json")
    for rec in (first, second):
        assert [(j["rc"], j["stdout"]) for j in rec["jobs"]] == [
            (j["rc"], j["stdout"]) for j in plain["jobs"]
        ]
    assert all(j["rc"] == 0 for j in plain["jobs"])
    counts = [name for name, (unit, _) in tracer.METRICS.items() if unit not in ("s", "ratio")]
    for name in counts:
        assert first["trace"].get(name, 0) == second["trace"].get(name, 0), name
    assert first["shapes"] == second["shapes"]
    for layer in tracer.LAYERS:
        assert first["trace"]["layer.%s.busy_s" % layer] > 0, layer
    spans = json.loads((tmp_path / "s1.json").read_text())
    assert len(spans["spans"]) == sum(
        v for k, v in first["trace"].items() if k.endswith(".calls")
    )


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in tracer.METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_without_jbkit_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_other_sizes(tmp_path):
    import compare

    rec = {"workload": "check", "trace": 0, "seed": 1, "failures": [], "problems": [],
           "sizes": {"jobs": 4, "job_sizes": {"check-00": {"basis": 21}}},
           "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    smaller = json.loads(json.dumps(rec))
    smaller["sizes"]["job_sizes"]["check-00"]["basis"] = 14
    assert compare.refusal([rec, rec]) is None
    assert "sizes differ" in compare.refusal([rec, smaller])
