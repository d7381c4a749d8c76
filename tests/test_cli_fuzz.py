"""The exit contract of the jb actions on structurally broken JSON.

Inputs are the bundled triangle datum and a small gauge family, mutated
a few times each: a key or entry deleted, a value replaced by null,
"1/0", an empty list or dict, or converted to another JSON type.  Every
run must end in exit status 0, 1 or 2 with no exception escaping
``cli.run``.
"""

import contextlib
import copy
import io
import json
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from jbkit import cli
from jbkit.jbcomplex import factories

TRIANGLE = json.loads(resources.files("jbkit").joinpath("data/triangle_sela.json").read_text())
FAMILY = {
    "sela": factories.nonabelian_triangle(2).to_json(),
    "psi": {
        "01": [{"name": "e12", "power": 1, "coeff": "1"}],
        "12": [{"name": "e23", "power": 1, "coeff": "1"}],
        "02": [{"name": "e12", "power": 1, "coeff": "1"},
               {"name": "e23", "power": 1, "coeff": "1"}],
    },
}
REPLACEMENTS = [None, "1/0", [], {}, 0, -1, "x", 2.5, True]


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _other_type(value):
    """The same content under another JSON type."""
    if isinstance(value, dict):
        return list(value.values())
    if isinstance(value, list):
        return {str(i): v for i, v in enumerate(value)}
    if isinstance(value, str):
        return [value]
    return str(value)


@st.composite
def mutated(draw):
    """A mutated document and the artin order of the document it came from."""
    base, order = draw(st.sampled_from([(TRIANGLE, 3), (FAMILY, 2)]))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(["delete", "replace", "retype"]))
        if not path:
            doc = draw(st.sampled_from(REPLACEMENTS)) if op != "retype" else _other_type(doc)
            continue
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if op == "delete":
            del parent[last]
        elif op == "replace":
            parent[last] = draw(st.sampled_from(REPLACEMENTS))
        else:
            parent[last] = _other_type(parent[last])
    return doc, order


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("action", ["check", "cocycle", "obstruct"])
def test_mutated_inputs_keep_the_exit_contract(action, workdir):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("JBKIT_MAX_DEGREE", "4")

        @settings(max_examples=40, deadline=None, database=None)
        @given(mutated())
        def check(case):
            doc, order = case
            path = workdir / ("%s.json" % action)
            path.write_text(json.dumps(doc))
            argv = ["jb", action, "--data", str(path)]
            if action == "obstruct":
                argv += ["--from-order", str(order), "--to-order", str(order + 1)]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.run(argv)
            assert rc in (0, 1, 2), (rc, doc)

        check()
