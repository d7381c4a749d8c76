"""Output checks: every job against an independent route or a known invariant.

check(job, result) returns None for a correct job and a one-line reason
otherwise.  The series output is compared with the associative-logarithm
oracle, cohomology and chain dimensions with those of the unscaled datum
(``expected.json``), Milnor numbers with (a-1)(b-1)(c-1), and the
remaining commands with the flags their own verification reports.
"""

from __future__ import annotations

import json
from functools import lru_cache

from jbkit.bch import BCH_ALPHABET, BCH_ALPHABET3, bch_oracle, bch_oracle_trivariate
from jbkit.exactnum import format_rational


def _terms(elt, alphabet):
    return [
        {"word": "".join(alphabet.labels[i] for i in word), "coeff": format_rational(c)}
        for word, c in sorted(elt.terms.items())
    ]


@lru_cache(maxsize=None)
def _oracle(max_degree, tri):
    """The series as the CLI prints it, computed by the associative route."""
    parts = bch_oracle_trivariate(max_degree) if tri else bch_oracle(max_degree)
    alphabet = BCH_ALPHABET3 if tri else BCH_ALPHABET
    return [
        {"tridegree" if tri else "bidegree": list(md), "terms": _terms(part, alphabet)}
        for md, part in sorted(parts.items())
    ]


def _bch(spec, out):
    if out.get("max_degree") != spec["max_degree"]:
        return "max_degree %r" % out.get("max_degree")
    if out.get("bigraded") != _oracle(spec["max_degree"], False):
        return "bigraded series differs from the associative oracle"
    if spec["tri"] and out.get("trigraded") != _oracle(spec["max_degree"], True):
        return "trigraded series differs from the associative oracle"
    return None


def _steps(spec, out):
    steps = out.get("steps", [])
    if len(steps) != spec["to_order"] - spec["from_order"]:
        return "%d extension steps" % len(steps)
    if not all(s.get("vanishes") is True and s.get("class") == [] for s in steps):
        return "an extension step is obstructed"
    if out.get("lifted") is not True:
        return "lifted is not true"
    return None


def _lift(spec, out):
    return _steps(spec, out) or (None if out.get("equation") else "no lifted equation")


def _obstruct(spec, out):
    if out.get("valid") is not True:
        return "family reported invalid"
    return _steps(spec, out)


def _milnor(spec, out):
    if out.get("dimension") != spec["dimension"]:
        return "dimension %r, expected %d" % (out.get("dimension"), spec["dimension"])
    return None


def _tangent(spec, out):
    for key in ("h1_dimension", "truncated_h1"):
        if out.get(key) != spec["h1"]:
            return "%s %r, expected %d" % (key, out.get(key), spec["h1"])
    return None


def _cohomology(spec, out):
    dim = out.get("dimension")
    if dim != spec["dimension"]:
        return "dimension %r, expected %d" % (dim, spec["dimension"])
    if len(out.get("representatives", ())) != dim:
        return "%d representatives for dimension %d" % (len(out["representatives"]), dim)
    return None


def _check(spec, out):
    if out.get("d_squared_zero") is not True:
        return "d_squared_zero is not true"
    if out.get("dimensions") != spec["dimensions"]:
        return "chain dimensions differ from the unscaled datum"
    return None


def _cocycle(spec, out):
    if out.get("valid") is not True or out.get("cycle") is not True:
        return "valid %r, cycle %r" % (out.get("valid"), out.get("cycle"))
    return None


_CHECKS = {
    "bch": _bch,
    "lift": _lift,
    "obstruct": _obstruct,
    "milnor": _milnor,
    "tangent": _tangent,
    "cohomology": _cohomology,
    "check": _check,
    "cocycle": _cocycle,
}


def check(job, result):
    """None when the job's result is correct, else the reason it is not."""
    if result["error"] is not None:
        return "raised %s" % result["error"]
    if result["rc"] != 0:
        return "exit code %r" % result["rc"]
    try:
        out = json.loads(result["stdout"])
    except ValueError:
        return "output is not JSON"
    spec = job["check"]
    return _CHECKS[spec["kind"]](spec, out)
