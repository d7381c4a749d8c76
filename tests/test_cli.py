"""The command line: exit status 0 (success), 1 (readable input that
fails a mathematical check) or 2 (malformed invocation) on every
subcommand, JSON on stdout and never a traceback."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jbkit import cli
from jbkit.jbcomplex import Sela, factories, jb_assemble
from jbkit.schemes import (
    buchberger, hypersurface_tangent_dgla, koszul_resolution, lift_deformation, parse_poly, tangent,
)


def run(capsys, *argv):
    rc = cli.run(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def run_json(capsys, *argv):
    rc, out, _ = run(capsys, *argv)
    return rc, json.loads(out)


def usage_error(capsys, *argv):
    """Exit 2 with the usage line and a message on stderr, nothing on stdout."""
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("usage: jbkit")
    return err


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def edge(*terms):
    return [{"name": n, "power": p, "coeff": c} for n, p, c in terms]


def broken_triangle():
    """nonabelian_triangle(3) with one coface entry set to 2."""
    data = factories.nonabelian_triangle(3).to_json()
    data["cofaces"][0]["matrix"][0][0] = "2"
    return data


# -- bernoulli and bch (no input can fail a check: only 0 and 2) -----------

def test_bernoulli(capsys):
    rc, out = run_json(capsys, "bernoulli", "--max", "4", "--format", "json")
    assert rc == 0
    assert out == {"0": "1", "1": "-1/2", "2": "1/6", "3": "0", "4": "-1/30"}
    rc, text, _ = run(capsys, "bernoulli", "--max", "2")
    assert (rc, text) == (0, "0: 1\n1: -1/2\n2: 1/6\n")
    usage_error(capsys, "bernoulli", "--max", "-1")
    usage_error(capsys, "bernoulli")


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_exits_one_without_traceback(unbuffered):
    # the reader is gone before the first byte; unbuffered, print fails,
    # buffered, only the flush at the end does
    read, write = os.pipe()
    os.close(read)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "jbkit", "bch", "--max-degree", "6"],
                              stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
    assert (proc.returncode, proc.stderr) == (1, "")


def test_degree_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("JBKIT_MAX_DEGREE", "3")
    assert "exceeds JBKIT_MAX_DEGREE=3" in usage_error(capsys, "bernoulli", "--max", "4")
    monkeypatch.setenv("JBKIT_MAX_DEGREE", "three")
    usage_error(capsys, "bch", "--max-degree", "2")


def test_bch(capsys):
    rc, out = run_json(capsys, "bch", "--max-degree", "2")
    assert rc == 0
    # the Lyndon word xy stands for the bracket [x, y]
    assert {"bidegree": [1, 1], "terms": [{"coeff": "1/2", "word": "xy"}]} in out["bigraded"]
    usage_error(capsys, "bch", "--max-degree", "0")
    usage_error(capsys, "bch", "--max-degree", "two")


def test_bch_tri_from_the_shared_table(capsys, monkeypatch):
    from jbkit.bch import build_table
    from jbkit.jbcomplex import assemble

    def outputs():
        return [run(capsys, "bch", "--max-degree", str(d), "--tri") for d in range(3, 7)]

    monkeypatch.setattr(assemble, "_TABLE_CACHE", {})
    cold = outputs()
    assert sorted(assemble._TABLE_CACHE) == [3, 4, 5, 6]
    monkeypatch.setattr(assemble, "_TABLE_CACHE", {})
    assemble._shared_table(7)
    warm = outputs()
    monkeypatch.setattr(cli, "_shared_table", lambda n: build_table(n, tri=True))
    built = outputs()
    assert cold == warm == built
    assert all(rc == 0 and '"trigraded"' in out for rc, out, _ in built)


# -- jb --------------------------------------------------------------------

def test_jb_check(capsys, tmp_path):
    path = write(tmp_path, "t.json", factories.nonabelian_triangle(2).to_json())
    rc, out = run_json(capsys, "jb", "check", "--data", path)
    assert rc == 0
    assert out["d_squared_zero"] is True
    path = write(tmp_path, "mc.json", factories.mc_triangle(3).to_json())
    rc, out = run_json(capsys, "jb", "check", "--data", path)
    assert rc == 1
    assert out["d_squared_zero"] is False and out["failures"]
    usage_error(capsys, "jb", "check", "--data", str(tmp_path / "absent.json"))
    usage_error(capsys, "jb", "verify", "--data", path)
    usage_error(capsys, "jb", "check")


def test_invalid_datum_is_refused_with_its_problems(capsys, tmp_path):
    data = broken_triangle()
    problems = Sela.from_json(data).validate()
    assert len(problems) == 2
    path = write(tmp_path, "bad.json", data)
    for action in ("check", "cohomology"):
        rc, out = run_json(capsys, "jb", action, "--data", path)
        assert rc == 1
        assert out == {"error": "gluing datum fails validation", "problems": problems}
    family = write(tmp_path, "family.json", {"sela": data, "psi": {}})
    for action in ("cocycle", "obstruct"):
        rc, out = run_json(capsys, "jb", action, "--data", family)
        assert (rc, out["problems"]) == (1, problems)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"artin_order": 2}, "KeyError: 'indices'"),
        ([1, 2], "TypeError"),
        ({"indices": [0], "algebras": {"0": {"basis": [{"name": "a"}]}}}, "KeyError: 'degree'"),
        ({"indices": [0, 1], "cofaces": [{"from": "0"}]}, "KeyError: 'to'"),
        ({"indices": [0], "algebras": {"0": {"basis": [{"name": "a", "degree": 0}],
          "brackets": [{"a": "a", "b": "a", "c": "a", "coeff": "1/0"}]}}}, "zero denominator"),
    ],
)
def test_malformed_datum_exits_one_without_traceback(capsys, tmp_path, data, message):
    path = write(tmp_path, "bad.json", data)
    rc, out, err = run(capsys, "jb", "check", "--data", path)
    assert rc == 1
    assert message in json.loads(out)["error"]
    assert err == ""


@pytest.mark.parametrize("order", [3.9, 3.0, True, "x", "3", None, [3]])
def test_artin_order_that_is_not_an_integer_exits_one(capsys, tmp_path, order):
    # a float, a bool or a string was once truncated or converted to an
    # order, or failed with a message that did not name the field
    data = factories.lie_pair(2).to_json()
    data["artin_order"] = order
    path = write(tmp_path, "bad.json", data)
    rc, out, err = run(capsys, "jb", "check", "--data", path)
    assert rc == 1 and err == ""
    assert json.loads(out) == {
        "error": "malformed gluing datum (artin_order must be an integer, got %r)" % (order,)
    }


@pytest.mark.parametrize("degree", [0.5, True, "0", None])
def test_basis_degree_that_is_not_an_integer_exits_one(capsys, tmp_path, degree):
    # 0.5 was once truncated to the degree-0 basis it stands beside
    data = factories.nonabelian_triangle(3).to_json()
    for entry in data["algebras"]["0"]["basis"]:
        entry["degree"] = degree
    rc, out, err = run(capsys, "jb", "check", "--data", write(tmp_path, "bad.json", data))
    assert (rc, err) == (1, "")
    assert json.loads(out) == {
        "error": "malformed Lie algebra (degree must be an integer, got %r)" % (degree,)
    }


def test_unparsable_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    rc, out = run_json(capsys, "jb", "check", "--data", str(path))
    assert rc == 1
    assert "not valid JSON" in out["error"]


def test_jb_cohomology(capsys, tmp_path):
    path = write(tmp_path, "pair.json", factories.lie_pair(2).to_json())
    rc, out = run_json(capsys, "jb", "cohomology", "--data", path, "--degree", "0")
    assert rc == 0
    assert out["dimension"] == 3 and len(out["representatives"]) == 3
    # outside the documented scope d*d fails, and with it the dimension
    path = write(tmp_path, "mc.json", factories.mc_triangle(3).to_json())
    rc, out = run_json(capsys, "jb", "cohomology", "--data", path, "--degree", "2")
    assert rc == 1
    assert "d*d does not vanish" in out["error"]
    usage_error(capsys, "jb", "cohomology", "--data", path, "--degree", "x")


# sha256 of stdout, pinned on the code before the basis was built per
# degree on first read: a reordered basis, representative or failure
# list changes the digest.  mc_triangle takes the full-product fallback
# and prints its failure list.
_CHECK_STDOUT = {  # (exit code, sha256 of stdout) of jb check
    ("abelian_triangle", 3): (0, "84bb6d7edfddbed1224ce0d6764a7822daaea04971881c7b1c6716a0d32da238"),
    ("abelian_triangle", 4): (0, "e7e528240f1785821fb836cf5dbdb8f5f245392a0c48806a98a799593c3c4323"),
    ("abelian_triangle", 5): (0, "7c9c1b6ad7401b342536ee8de91a715fdd9d10a0e76ce6026c3089f5acac8f10"),
    ("dg_pair", 3): (0, "f3268dac3ea3997d2f07f2448031ea44dc3a015e5b8ec5be77eecbdf19dbcc27"),
    ("dg_pair", 4): (0, "d4ee5539997e577d5e687b50ff2ef5a42751a3d33d77a284f989b1001f44fc9a"),
    ("dg_pair", 5): (0, "3b5e31c77db7128f18c2e778f8b2cd4397e3ff9599eae03431e2b392bad2ede0"),
    ("dg_triangle", 3): (0, "afd89b3029c8907ff60a6f418b4aea7a7be9f08bf65d5dce712417a300e08e5f"),
    ("dg_triangle", 4): (0, "8240986f25a57b7d8c9fc13511d7347e302c26cc050e9873d9cc8c755a13f2ce"),
    ("dg_triangle", 5): (0, "150de43cdcfef3f2b84696f78a59f5543c380a7b1b0e5dd390b3518754069f8b"),
    ("lie_pair", 3): (0, "94bf3e01fa3ea73bfa626b746f5639472e1b559fa7965bede3058a121fc968c7"),
    ("lie_pair", 4): (0, "440eacfc1b222e50791e5855d522a8c9c57ef950d20e6012daefd8aba1148acd"),
    ("lie_pair", 5): (0, "c9ea2193f9c57bc0b1f222fd7c015611f4e8fd300e7b3f0d4ff246d3ce5ebee0"),
    ("mc_pair", 3): (0, "a0a0904c5fc408072cf56a8dd3b4799732e7f3ba39174b4ae45b15e49964ea7b"),
    ("mc_pair", 4): (0, "6970c3e3955cbb7194cb24f6376589d05b637624b4d196500e23ac7aec12576f"),
    ("mc_pair", 5): (0, "a5d91c7118b54448b1dfc9dfd3482c89f7acd0640d258cd58b4ed03ff1992a62"),
    ("mc_triangle", 3): (1, "847dce9065e102f228366be9b0c84ab38f1e8da2d775351d20b9a7a06b2354db"),
    ("mc_triangle", 4): (1, "6f2ffd41fb67ed73918bed284991c180dc89d552d64ed07bf83a8625c7695ef1"),
    ("mc_triangle", 5): (1, "8ad51687d1790ab2428b61b5b4705f7a6034b557095f2242a62affa8728353ec"),
    ("nonabelian_triangle", 3): (0, "fdbbfa89f8614bc0a74babf6e93cb07486361b0f53a5f2c72a6b94e65fa72b4b"),
    ("nonabelian_triangle", 4): (0, "4067fb5d6c4f400c5d7b74b622e5d7d308b4ef11e3973d2c37b8540bc6b6f625"),
    ("nonabelian_triangle", 5): (0, "70bc33b8a7889c0c330e027942246ec1f322ee13d54f5dbf12918043ccc265cc"),
    ("obstructed_triangle", 3): (0, "767c97730f450e96e040c401949316be1554befad756fe7610b3831444f6acab"),
    ("obstructed_triangle", 4): (0, "3faa857da8830ccb6b4bd6a861024211c3407f5b9314a1bab9635c51625333d9"),
    ("obstructed_triangle", 5): (0, "ab038f1f15829d6c4fcc2c8ec19536f58026934f84047f5401d0f9f79e941c57"),
    ("zero_sela", 3): (0, "2c224ddea704f61f106126e80342e2273493dc4e0bfcdcaa7ed80a53af018fbf"),
    ("zero_sela", 4): (0, "3611c55024d4a02e4dbf7d8349ab43bc9f88c67188286742a47fe7a9c6dd5e6f"),
    ("zero_sela", 5): (0, "0fcd48065ed46acda9e4c1bd6e4841a34f8ac7336b6e586c4911d788b8c36408"),
}
_COHOMOLOGY_STDOUT = {  # sha256 of stdout of jb cohomology at order 4, every degree
    ("dg_triangle", -3): "b8a5a2eb1b70bf3d08f4d5066b348ed1263e1d053eeda2e28c2becb62dc59328",
    ("dg_triangle", -2): "b768c960437930ce268e0e2257727e0873adca60d9dc8a089a63b83155863ca5",
    ("dg_triangle", -1): "650b3e458bdcb58c8aecb56a54d021281e85827918550a0b391a4054b8f284ab",
    ("dg_triangle", 0): "579d6822495c21626cb7d6913bfc34cd429d864c733d89803da9e95203d3013a",
    ("dg_triangle", 1): "472a1c5bea75d95dfde4e3e9dc952a0437d996a75b768935385d338d266b208b",
    ("dg_triangle", 2): "4c18e80e8994a4c8016019d94fb68ffdc97c939c150e28f55a4b7889179a56dd",
    ("dg_triangle", 3): "26807203d4e5c076e3ad9d6531bccacf799296b90437825c3a272b32fc09ec5b",
    ("dg_triangle", 4): "396579bb6347e71d3de0ed4742ef15060500f20cef8991ea5dccb05365127a2f",
    ("dg_triangle", 5): "b8cf3ed27c7c90254db8c17925e790a755d9583bb363fc0c649ea485a87f243f",
    ("dg_triangle", 6): "5bf023f38093d31cf88b591459ba80b077312cc7fe70497b4f9104d2fed29d9b",
    ("nonabelian_triangle", -3): "2fcffbe30b868bded8f1f4f8a7b484acdf06750ca91028b5941f23478f000afc",
    ("nonabelian_triangle", -2): "59ffd1ce03a7e5c71c9bd222728916a0571f881079f2d0e5b7a6442ec83d1e6c",
    ("nonabelian_triangle", -1): "61171ac5a5d1e032331db9744cb1fb4806d70d48714133b923b20397242c3822",
    ("nonabelian_triangle", 0): "579d6822495c21626cb7d6913bfc34cd429d864c733d89803da9e95203d3013a",
    ("nonabelian_triangle", 1): "472a1c5bea75d95dfde4e3e9dc952a0437d996a75b768935385d338d266b208b",
    ("nonabelian_triangle", 2): "4c18e80e8994a4c8016019d94fb68ffdc97c939c150e28f55a4b7889179a56dd",
    ("nonabelian_triangle", 3): "26807203d4e5c076e3ad9d6531bccacf799296b90437825c3a272b32fc09ec5b",
}


@pytest.mark.parametrize("name, order", sorted(_CHECK_STDOUT))
def test_jb_check_prints_pinned_bytes(capsys, tmp_path, name, order):
    path = write(tmp_path, "sela.json", getattr(factories, name)(order).to_json())
    rc, out, err = run(capsys, "jb", "check", "--data", path)
    assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == _CHECK_STDOUT[name, order] + ("",)


@pytest.mark.parametrize("name", ["dg_triangle", "nonabelian_triangle"])
def test_jb_cohomology_prints_pinned_bytes_in_every_degree(capsys, tmp_path, name):
    sela = getattr(factories, name)(4)
    path = write(tmp_path, "sela.json", sela.to_json())
    degrees = sorted(deg for n, deg in _COHOMOLOGY_STDOUT if n == name)
    assert degrees == jb_assemble(sela).degrees()
    for deg in degrees:
        rc, out, err = run(capsys, "jb", "cohomology", "--data", path, "--degree", str(deg))
        assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == \
            (0, _COHOMOLOGY_STDOUT[name, deg], ""), deg


def test_jb_cocycle(capsys, tmp_path):
    sela = factories.nonabelian_triangle(2).to_json()
    good = {"01": edge(("e12", 1, "1")), "12": edge(("e23", 1, "1")),
            "02": edge(("e12", 1, "1"), ("e23", 1, "1"))}
    path = write(tmp_path, "good.json", {"sela": sela, "psi": good})
    rc, out = run_json(capsys, "jb", "cocycle", "--data", path)
    assert (rc, out) == (0, {"valid": True, "cycle": True, "residual": []})
    bad = dict(good, **{"02": edge(("e12", 1, "1"))})
    path = write(tmp_path, "bad.json", {"sela": sela, "psi": bad})
    rc, out = run_json(capsys, "jb", "cocycle", "--data", path)
    assert rc == 1 and out["valid"] is False
    for psi in ({"01": [{"name": "e12"}]}, {"01": "e12"}, ["e12"]):
        path = write(tmp_path, "malformed.json", {"sela": sela, "psi": psi})
        rc, out = run_json(capsys, "jb", "cocycle", "--data", path)
        assert rc == 1 and "malformed family" in out["error"]
    usage_error(capsys, "jb", "cocycle", "--data", str(tmp_path / "absent.json"))


@pytest.mark.parametrize(
    "family, error",
    [
        (
            {"sela": factories.mc_pair(3).to_json(),
             "phi": {"0": edge(("y", 1, "1"), ("x", 2, "-1/2"))}},
            "transport fails on edge 01: d psi - transport gap = "
            "LieElement({'x': ['0', '0', '1/2'], 'y': ['0', '-1', '0']})",
        ),
        (
            {"sela": factories.mc_pair(3).to_json(),
             "phi": {"0": edge(("y", 1, "1")), "1": edge(("y", 1, "1"))}},
            "flatness fails on vertex 0: d phi + [phi, phi]/2 = LieElement({'w': ['0', '0', '1/2']})",
        ),
        (
            {"sela": factories.obstructed_triangle(3).to_json(),
             "psi": {e: edge(("u0", 1, "1")) for e in ("01", "02", "12")}},
            "composition fails on triangle 012: series value LieElement({'e13': ['0', '0', '1/2']})",
        ),
    ],
    ids=["transport", "flatness", "composition"],
)
def test_jb_cocycle_failure_messages(capsys, tmp_path, family, error):
    # the printed defect pins the sign of each gluing condition
    path = write(tmp_path, "family.json", family)
    rc, out = run_json(capsys, "jb", "cocycle", "--data", path)
    assert (rc, out) == (1, {"valid": False, "error": error})


def test_jb_obstruct(capsys, tmp_path):
    sela = factories.nonabelian_triangle(2).to_json()
    psi = {"01": edge(("e12", 1, "1")), "12": edge(("e23", 1, "1")),
           "02": edge(("e12", 1, "1"), ("e23", 1, "1"))}
    path = write(tmp_path, "lifts.json", {"sela": sela, "psi": psi})
    rc, out = run_json(capsys, "jb", "obstruct", "--data", path)
    assert rc == 0 and out["lifted"] is True
    taut = edge(("u0", 1, "1"))
    path = write(tmp_path, "obstructed.json", {
        "sela": factories.obstructed_triangle(2).to_json(),
        "psi": {"01": taut, "02": taut, "12": taut},
    })
    rc, out = run_json(capsys, "jb", "obstruct", "--data", path)
    assert rc == 1 and out["lifted"] is False
    assert out["steps"][0]["class"] == [{"basis": "e13", "coeff": "1/2", "simplex": "012"}]
    rc, out = run_json(capsys, "jb", "obstruct", "--data", path, "--from-order", "3")
    assert rc == 1 and "does not match" in out["error"]
    usage_error(capsys, "jb", "obstruct", "--data", path, "--to-order", "x")


@pytest.mark.parametrize("action", ["cocycle", "obstruct"])
@pytest.mark.parametrize("power", [2.7, True, "1", -1])
def test_family_power_that_is_not_a_nonnegative_integer_exits_one(capsys, tmp_path, action, power):
    # at N = 3, 2.7 was once read as 2 and -1 landed on t^2
    sela = factories.nonabelian_triangle(3).to_json()
    psi = {"01": edge(("e12", 1, "1")), "12": edge(("e23", power, "1")),
           "02": edge(("e12", 1, "1"), ("e23", 1, "1"))}
    path = write(tmp_path, "family.json", {"sela": sela, "psi": psi})
    rc, out = run_json(capsys, "jb", action, "--data", path)
    assert (rc, out) == (
        1, {"error": "malformed family (power must be a nonnegative integer, got %r)" % (power,)}
    )


def _lie_slots(key):
    """Every (container, key) of one rational field in each algebra of a gluing datum."""
    def slots(data):
        algebras = data["algebras"].values()
        if key == "rep":
            return [(row, c) for a in algebras for mat in a.get("rep", {}).values()
                    for row in mat for c in range(len(row))]
        return [(e, "coeff") for a in algebras for e in a.get(key, [])]
    return slots


def _coface_slots(data):
    return [(row, c) for e in data["cofaces"] for row in e["matrix"] for c in range(len(row))]


def _family_slots(data):
    return [(rec, "coeff") for records in data["psi"].values() for rec in records]


def _triangle_family():
    return {"sela": factories.nonabelian_triangle(2).to_json(),
            "psi": {"01": edge(("e12", 1, "1")), "12": edge(("e23", 1, "1")),
                    "02": edge(("e12", 1, "1"), ("e23", 1, "1"))}}


_RATIONAL_FIELDS = {
    "bracket coeff": ("check", "Lie algebra", lambda: factories.nonabelian_triangle(3).to_json(),
                      _lie_slots("brackets")),
    "differential coeff": ("check", "Lie algebra", lambda: factories.dg_triangle(3).to_json(),
                           _lie_slots("differential")),
    "rep entry": ("check", "Lie algebra", lambda: factories.nonabelian_triangle(3).to_json(),
                  _lie_slots("rep")),
    "coface entry": ("check", "gluing datum", lambda: factories.nonabelian_triangle(3).to_json(),
                     _coface_slots),
    "coeff": ("cocycle", "family", _triangle_family, _family_slots),
}


@pytest.mark.parametrize("field", list(_RATIONAL_FIELDS))
def test_json_rational_fields_take_integers_and_name_themselves(capsys, tmp_path, field):
    # integer coface entries once failed with an AttributeError, and a
    # float or bool elsewhere with "invalid literal for int()"
    action, datum, build, slots = _RATIONAL_FIELDS[field]
    data = build()
    rc, want = run_json(capsys, "jb", action, "--data", write(tmp_path, "str.json", data))
    assert rc == 0
    changed = 0
    for entry, key in slots(data):
        if "/" not in entry[key]:
            entry[key] = int(entry[key])
            changed += 1
    assert changed
    path = write(tmp_path, "int.json", data)
    assert run_json(capsys, "jb", action, "--data", path) == (0, want)
    for bad in (0.5, True, None, "1/x"):
        data = build()
        entry, key = slots(data)[0]
        entry[key] = bad
        rc, out = run_json(capsys, "jb", action, "--data", write(tmp_path, "bad.json", data))
        assert rc == 1 and out["error"].startswith(
            'malformed %s (%s must be an integer or a "p/q" string, got %r' % (datum, field, bad)
        )


def test_jb_obstruct_refuses_unordered_orders_before_reading_data(capsys, tmp_path):
    absent = str(tmp_path / "absent.json")
    err = usage_error(capsys, "jb", "obstruct", "--data", absent,
                      "--from-order", "4", "--to-order", "4")
    assert "--to-order must exceed --from-order" in err
    err = usage_error(capsys, "jb", "obstruct", "--data", absent, "--to-order", "1")
    assert "--to-order must exceed --from-order" in err


# -- hypersurfaces -----------------------------------------------------------

@pytest.mark.parametrize(
    "vars, poly",
    [
        ("x,y", "x^^2"),
        ("x,y", "x^"),
        ("x,y", "z^2"),
        ("x,y", "1/0*x"),
        ("x,x", "x^2"),
        ("1x", "x^2"),
        (",", "x^2"),
    ],
)
def test_malformed_polynomial_arguments_exit_two(capsys, vars, poly):
    usage_error(capsys, "milnor", "--vars", vars, "--poly", poly)
    usage_error(capsys, "tangent-dgla", "--vars", vars, "--poly", poly)
    usage_error(capsys, "deform", "lift", "--vars", vars, "--poly", poly,
                "--direction", "x", "--to-order", "3")


def test_milnor(capsys):
    rc, out = run_json(capsys, "milnor", "--vars", "x,y", "--poly", "x^3+y^2")
    assert (rc, out) == (0, {"dimension": 2})
    # not quasi-homogeneous: the Tjurina number 11, not the Milnor number 14
    rc, out = run_json(capsys, "milnor", "--vars", "x,y", "--poly", "x^4+y^5+x^2*y^3")
    assert (rc, out) == (0, {"dimension": 11})
    rc, out = run_json(capsys, "milnor", "--vars", "x,y", "--poly", "x^2")
    assert rc == 1 and "not isolated" in out["error"]
    usage_error(capsys, "milnor", "--vars", "x,y")


def test_tangent_dgla(capsys):
    rc, out = run_json(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "x^3+y^2")
    assert rc == 0 and out["h1_dimension"] == 2
    rc, out = run_json(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "1")
    assert rc == 1 and "nonconstant" in out["error"]
    usage_error(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "x", "--truncate", "x")
    err = usage_error(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "x^2+y^3",
                      "--truncate", "-2")
    assert "--truncate must be nonnegative" in err
    # a malformed invocation is refused before the equation is looked at
    err = usage_error(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "1", "--truncate", "-2")
    assert "--truncate must be nonnegative" in err


@pytest.mark.parametrize("truncate, max_degree, message", [
    ("-2", None, "--truncate must be nonnegative"),
    ("4", "3", "--truncate 4 exceeds JBKIT_MAX_DEGREE=3"),
])
def test_tangent_dgla_checks_truncate_before_any_work(capsys, monkeypatch, truncate, max_degree,
                                                      message):
    calls = []
    monkeypatch.setattr(cli, "hypersurface_tangent_dgla", lambda f: calls.append(f))
    if max_degree is None:
        monkeypatch.delenv("JBKIT_MAX_DEGREE", raising=False)
    else:
        monkeypatch.setenv("JBKIT_MAX_DEGREE", max_degree)
    err = usage_error(capsys, "tangent-dgla", "--vars", "x,y", "--poly", "x^2+y^3",
                      "--truncate", truncate)
    assert message in err
    assert calls == []


@pytest.mark.parametrize("poly", ["x^3+y^2", "x^2"])
def test_tangent_dgla_runs_buchberger_once(capsys, monkeypatch, poly):
    # the printed ideal and dimension (or note) are those of h1_ideal and
    # h1_dimension, from one reduced basis
    tc = hypersurface_tangent_dgla(parse_poly(poly, ("x", "y")))
    want = {
        "vars": ["x", "y"],
        "degrees": list(tc.complex.degrees()),
        "ranks": [tc.complex.rank(d) for d in tc.complex.degrees()],
        "h1_ideal": [str(g) for g in tc.h1_ideal()],
        "truncated_h1": tc.truncated_h1(2),
        "truncated_ranks": {str(d): r for d, r in tc.truncated_ranks(2).items()},
    }
    try:
        want["h1_dimension"] = tc.h1_dimension()
    except ValueError as e:
        want["h1_dimension"] = None
        want["note"] = str(e)
    calls = []
    monkeypatch.setattr(tangent, "buchberger", lambda gens: calls.append(gens) or buchberger(gens))
    rc, out, _ = run(capsys, "tangent-dgla", "--vars", "x,y", "--poly", poly, "--truncate", "2")
    assert rc == 0 and len(calls) == 1
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


def test_deform_lift(capsys):
    base = ("deform", "lift", "--vars", "x,y", "--poly", "x^4+y^5")
    rc, out = run_json(capsys, *base, "--direction", "x^2*y^3", "--to-order", "4")
    assert rc == 0 and out["lifted"] is True
    err = usage_error(capsys, *base, "--direction", "x", "--from-order", "3", "--to-order", "2")
    assert "--to-order must exceed --from-order" in err
    usage_error(capsys, *base, "--direction", "x*", "--to-order", "3")
    usage_error(capsys, *base, "--direction", "w", "--to-order", "3")
    rc, out = run_json(capsys, "deform", "lift", "--vars", "x,y", "--poly=0", "--direction=x",
                       "--to-order", "3")
    assert (rc, out) == (1, {"error": "the equation must be nonzero, got f = 0"})


def test_deform_lift_refuses_unordered_orders_before_parsing(capsys):
    err = usage_error(capsys, "deform", "lift", "--vars", "x,x", "--poly", "x^", "--direction", "x",
                      "--from-order", "3", "--to-order", "2")
    assert "--to-order must exceed --from-order" in err
    with pytest.raises(ValueError, match="must exceed"):
        lift_deformation(parse_poly("x^4+y^5", ("x", "y")), parse_poly("x", ("x", "y")), 3, 3)


# -- resolution and selfcheck ------------------------------------------------

def test_resolution_check(capsys, tmp_path):
    x, y = parse_poly("x", ("x", "y")), parse_poly("y", ("x", "y"))
    path = write(tmp_path, "koszul.json", koszul_resolution([x, y]).to_json())
    rc, out = run_json(capsys, "resolution", "check", "--file", path)
    assert (rc, out["ok"], out["ranks"]) == (0, True, [1, 2, 1])
    for data in ([1], {"vars": "xy", "maps": 3, "ranks": [1]}, {"vars": ["x"]}):
        path = write(tmp_path, "bad.json", data)
        rc, out = run_json(capsys, "resolution", "check", "--file", path)
        assert rc == 1 and out["ok"] is False
    usage_error(capsys, "resolution", "check", "--file", str(tmp_path / "absent.json"))


@pytest.mark.parametrize("start", [0.5, False, "0"])
def test_resolution_start_that_is_not_an_integer_exits_one(capsys, tmp_path, start):
    data = koszul_resolution([parse_poly("x", ("x",))]).to_json()
    data["start"] = start
    rc, out = run_json(capsys, "resolution", "check", "--file", write(tmp_path, "c.json", data))
    assert (rc, out) == (
        1, {"ok": False, "error": "malformed complex (start must be an integer, got %r)" % (start,)}
    )


@pytest.mark.parametrize("rank", [1.9, True, "1"])
def test_resolution_rank_that_is_not_an_integer_exits_one(capsys, tmp_path, rank):
    data = koszul_resolution([parse_poly("x", ("x",))]).to_json()
    data["ranks"] = [rank, 1]
    rc, out = run_json(capsys, "resolution", "check", "--file", write(tmp_path, "c.json", data))
    error = "malformed complex (ranks[0] must be an integer, got %r)" % (rank,)
    assert (rc, out) == (1, {"ok": False, "error": error})


def test_resolution_check_ignores_an_order_key(capsys, tmp_path):
    # older files carry "order": "grevlex", the one term order
    V = ("x", "y")
    koszul = koszul_resolution([parse_poly("x", V), parse_poly("y", V)]).to_json()
    not_a_complex = {"vars": list(V), "ranks": [1, 1, 1], "maps": [[["x"]], [["x+y^2"]]]}
    for data in (koszul, not_a_complex):
        assert "order" not in data
        runs = [
            run(capsys, "resolution", "check", "--file", write(tmp_path, "c.json", body))
            for body in (data, dict(data, order="grevlex"))
        ]
        assert runs[0] == runs[1]
    assert runs[0][0] == 1 and "x*y^2 + x^2" in runs[0][1]


def test_selfcheck(capsys, monkeypatch):
    rc, out = run_json(capsys, "selfcheck", "--format", "json")
    assert rc == 0
    assert sorted(out) == ["bch", "bernoulli", "jb", "milnor"]
    assert all(suite["pass"] for suite in out.values())
    usage_error(capsys, "selfcheck", "--suite", "nope")
    fixture = cli._fixture
    monkeypatch.setattr(
        cli,
        "_fixture",
        lambda name: broken_triangle() if name == "triangle_sela.json" else fixture(name),
    )
    rc, out = run_json(capsys, "selfcheck", "--suite", "jb", "--format", "json")
    assert rc == 1
    assert out["jb"]["pass"] is False
    assert "fails validation" in out["jb"]["detail"]


def test_selfcheck_jb_names_the_first_failure(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "verify_d_squared", lambda jb: [(-1, "[0:e12] t^1", "[01:e13] t^1", Fraction(-3, 2))]
    )
    rc, out = run_json(capsys, "selfcheck", "--suite", "jb", "--format", "json")
    assert rc == 1
    assert out["jb"]["detail"] == (
        "d*d has 1 nonzero entries, first in degree -1: [0:e12] t^1 -> [01:e13] t^1, "
        "coefficient -3/2"
    )
    monkeypatch.undo()
    monkeypatch.setattr(cli, "verify_cocycle", lambda sela, cocycle: [("[012:e13] t^2", Fraction(5))])
    rc, out = run_json(capsys, "selfcheck", "--suite", "jb", "--format", "json")
    assert rc == 1
    assert out["jb"]["detail"] == (
        "coboundary family is not a cycle (1 terms), first [012:e13] t^2, coefficient 5"
    )


def test_selfcheck_prints_the_same_bytes_on_every_run(capsys):
    for argv in (["selfcheck"], ["selfcheck", "--format", "json"]):
        first, second = run(capsys, *argv), run(capsys, *argv)
        assert first[0] == 0
        assert first == second


# -- step reports, complexes and series, pinned ------------------------------

# (exit code, sha256 of stdout), pinned on the code before the step and
# complex reports of jb obstruct, deform lift, tangent-dgla and
# resolution check were built by one helper each.  The obstruct run on
# the tautological family stops at its first step with class e13 1/2.
_TAUT = edge(("u0", 1, "1"))
_PINNED = {
    "jb-obstruct": (
        ["jb", "obstruct", "--data", "{family}", "--from-order", "2", "--to-order", "4"],
        (1, "6f9997bfab45619d9235ca08109cfa38b7208bc59b88dc38e0fbadd275ec5ddf"),
    ),
    "jb-cocycle": (
        ["jb", "cocycle", "--data", "{family}"],
        (0, "de62a7bee24876bdbddc54ab4b692f6a21cb00d5096dd3641d488984ab239bbc"),
    ),
    "deform-lift-x2+y": (
        ["deform", "lift", "--vars", "x,y", "--poly", "x^2+y^3", "--direction", "x^2+y",
         "--to-order", "4"],
        (0, "1216db4baf57cbb3553768b9dfba86e7f3852a3b336546a72b377c47005f4734"),
    ),
    "deform-lift-y": (
        ["deform", "lift", "--vars", "x,y", "--poly", "x^2+y^3", "--direction", "y",
         "--to-order", "5"],
        (0, "50d20c38b7ce5b87db4b4382fb41b5a1e99a524704e62bee253f7479cdb7ff93"),
    ),
    "deform-lift-xy": (
        ["deform", "lift", "--vars", "x,y", "--poly", "x^4+y^5", "--direction", "x*y",
         "--from-order", "3", "--to-order", "6"],
        (0, "74feef5cdbdb480255772282dcdaeb865f8f63ce431a65b1d768fc9c790dcb2b"),
    ),
    "resolution-check": (
        ["resolution", "check", "--file", "{resolution}"],
        (0, "c1997a60c875921653ef7d779a42a1e945fb6bc56d9cbe3e563b74335da8eb54"),
    ),
    "tangent-dgla": (
        ["tangent-dgla", "--vars", "x,y", "--poly", "x^3+y^4", "--truncate", "5"],
        (0, "d8b84a4ebb2fd39e3042bc727abee24de441fd9e200f6721495785524c1016c3"),
    ),
    "bch-tri": (
        ["bch", "--max-degree", "7", "--tri"],
        (0, "5fda7b741404b2133b48900143c420686a499ad241c840b32ceb26a4090141bc"),
    ),
    "selfcheck-json": (
        ["selfcheck", "--format", "json"],
        (0, "babe54975a34704a7406f6ee1f0e283e31ae57b1c3a4f5cc290154f96f7bb1d7"),
    ),
    "jb-cohomology": (
        ["jb", "cohomology", "--data", "{sela}", "--degree", "1"],
        (0, "6538981c3aab09b1b798d1abce83128e597091b2c82288565f8b4971ad29d042"),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_reports_print_pinned_bytes(capsys, tmp_path, name):
    sela = factories.obstructed_triangle(2).to_json()
    paths = {
        "family": write(tmp_path, "family.json",
                        {"sela": sela, "psi": {"01": _TAUT, "02": _TAUT, "12": _TAUT}}),
        "resolution": write(tmp_path, "resolution.json",
                            {"vars": ["x", "y"], "maps": [[["x^2+y^3"]]], "ranks": [1, 1],
                             "start": -1}),
        "sela": write(tmp_path, "sela.json", sela),
    }
    argv, pinned = _PINNED[name]
    rc, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == pinned + ("",)
