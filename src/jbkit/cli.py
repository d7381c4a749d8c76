"""Command line front end.

One binary, subcommand per pipeline, JSON in and out.  Rationals are
printed as strings so no consumer ever rounds them; for fixed inputs the
bytes emitted are identical run to run.  Exit status 0 means success, 1
a readable input that failed a mathematical validation or a stdout its
reader closed early (no traceback then either), 2 a malformed invocation.
The environment variable JBKIT_MAX_DEGREE caps every degree- or
order-like argument globally.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .bch import build_table
from .exactnum import bernoulli, binomial, format_rational, json_int, json_rational
from .liecore import ArtinLine, LieElement
from .jbcomplex import (
    Sela,
    coboundary_gluing,
    jb_assemble,
    jb_cohomology,
    obstruction,
    special_cocycle,
    verify_cocycle,
    verify_d_squared,
)
from .jbcomplex.assemble import _shared_table, format_monomial
from .jbcomplex.sela import _parse_simplex, _simplex_name
from .schemes import (
    PolyComplex,
    hypersurface_tangent_dgla,
    lift_deformation,
    milnor_dim,
    parse_poly,
    quotient_dimension,
)

__all__ = ["main", "run"]


class _Usage(Exception):
    """Malformed invocation; rendered as a synopsis plus message."""


class _Invalid(ValueError):
    """Readable input that fails validation; rendered with its problems."""

    def __init__(self, message, problems):
        super().__init__(message)
        self.problems = problems


def _cap(value, what):
    """Apply the global degree cap from the environment."""
    raw = os.environ.get("JBKIT_MAX_DEGREE")
    if raw is None:
        return value
    try:
        cap = int(raw)
    except ValueError:
        raise _Usage("JBKIT_MAX_DEGREE=%r is not an integer" % raw)
    if value > cap:
        raise _Usage("%s %d exceeds JBKIT_MAX_DEGREE=%d" % (what, value, cap))
    return value


def _emit(obj):
    print(json.dumps(obj, indent=2, sort_keys=True))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise _Usage("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise ValueError("%s is not valid JSON: %s" % (path, e))


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _vars_arg(text):
    names = tuple(v.strip() for v in text.split(",") if v.strip())
    if not names or len(set(names)) < len(names) or not all(map(_NAME.match, names)):
        raise _Usage("--vars needs a comma-separated list of distinct names")
    return names


def _poly_arg(flag, text, vars):
    try:
        return parse_poly(text, vars)
    except ValueError as e:
        raise _Usage("%s: %s" % (flag, e))


# -- subcommands --------------------------------------------------------------


def cmd_bernoulli(args):
    n = _cap(args.max, "--max")
    if n < 0:
        raise _Usage("--max must be nonnegative")
    rows = [(k, format_rational(bernoulli(k))) for k in range(n + 1)]
    if args.fmt == "json":
        _emit({str(k): v for k, v in rows})
    else:
        for k, v in rows:
            print("%d: %s" % (k, v))
    return 0


def cmd_bch(args):
    n = _cap(args.max_degree, "--max-degree")
    if n < 1:
        raise _Usage("--max-degree must be at least 1")
    # the trivariate table is the one the JB pipelines share
    table = _shared_table(n) if args.tri else build_table(n)
    out = {
        "max_degree": n,
        "bigraded": [
            {"bidegree": list(md), "terms": part.to_terms()}
            for md, part in sorted(table.bidegree.items())
        ],
    }
    if args.tri:
        out["trigraded"] = [
            {"tridegree": list(md), "terms": part.to_terms()}
            for md, part in sorted(table.tridegree.items())
        ]
    _emit(out)
    return 0


def _load_sela(data):
    if isinstance(data, dict) and "sela" in data:
        data = data["sela"]
    sela = Sela.from_json(data)
    _cap(sela.artin_order, "artin order")
    problems = sela.validate()
    if problems:
        raise _Invalid("gluing datum fails validation", problems)
    return sela


def _element_from_json(sela, simplex, records):
    lie = sela.algebra(simplex)
    ring = ArtinLine(sela.artin_order)
    coeffs = {}
    for rec in records:
        name = rec["name"]
        if name not in lie.index:
            raise ValueError(
                "no basis element %r on simplex %s" % (name, _simplex_name(simplex))
            )
        idx = lie.index[name]
        power = json_int(rec["power"], "power", "family", nonnegative=True)
        term = ring.t_power(power, json_rational(rec["coeff"], "coeff", "family"))
        coeffs[idx] = coeffs.get(idx, ring.zero()) + term
    return LieElement(lie, ring, coeffs)


def _load_family(data):
    """A gluing datum with a cochain: {"sela": …, "phi": …, "psi": …}."""
    sela = _load_sela(data)
    chains = {"phi": {}, "psi": {}}
    try:
        for part, chain in chains.items():
            for key, records in data.get(part, {}).items():
                simplex = _parse_simplex(key, sela.indices)
                chain[simplex] = _element_from_json(sela, simplex, records)
    except (KeyError, TypeError, AttributeError) as e:
        raise ValueError("malformed family (%s: %s)" % (type(e).__name__, e)) from None
    return sela, chains["phi"], chains["psi"]


def _class_json(sela, cls):
    out = []
    for (simplex, b), coeff in sorted(cls.items(), key=lambda kv: (len(kv[0][0]), kv[0])):
        out.append(
            {
                "simplex": _simplex_name(simplex),
                "basis": sela.algebra(simplex).names[b],
                "coeff": format_rational(coeff),
            }
        )
    return out


def _order_pair(args):
    if args.to_order is None:
        args.to_order = args.from_order + 1
    if args.to_order <= args.from_order:
        raise _Usage("--to-order must exceed --from-order")


def cmd_jb(args):
    if args.action == "obstruct":
        _order_pair(args)
    data = _load_json(args.data)
    if args.action == "check":
        sela = _load_sela(data)
        jb = jb_assemble(sela)
        bad = verify_d_squared(jb)
        report = {
            "indices": list(sela.indices),
            "artin_order": sela.artin_order,
            "dimensions": {str(deg): jb.dim(deg) for deg in jb.degrees()},
            "d_squared_zero": not bad,
        }
        if bad:
            report["failures"] = [
                {"degree": deg, "source": src, "target": dst, "coeff": format_rational(v)}
                for deg, src, dst, v in bad
            ]
        _emit(report)
        return 0 if not bad else 1

    if args.action == "cohomology":
        sela = _load_sela(data)
        jb = jb_assemble(sela)
        dim, reps = jb_cohomology(jb, args.degree)
        _emit(
            {
                "degree": args.degree,
                "dimension": dim,
                "representatives": [
                    [[format_monomial(sela, m), format_rational(c)] for m, c in sorted(rep.items())]
                    for rep in reps
                ],
            }
        )
        return 0

    if args.action == "cocycle":
        sela, phi, psi = _load_family(data)
        try:
            cocycle = special_cocycle(sela, phi, psi)
        except ValueError as e:
            _emit({"valid": False, "error": str(e)})
            return 1
        residual = verify_cocycle(sela, cocycle)
        _emit(
            {
                "valid": True,
                "cycle": not residual,
                "residual": [[m, format_rational(c)] for m, c in residual],
            }
        )
        return 0 if not residual else 1

    if args.action == "obstruct":
        sela, phi, psi = _load_family(data)
        _cap(args.to_order, "--to-order")
        if args.from_order != sela.artin_order:
            raise ValueError(
                "--from-order %d does not match the datum's artin order %d"
                % (args.from_order, sela.artin_order)
            )
        # the largest table first: every smaller one is a truncation of it
        _shared_table(args.to_order - 1)
        try:
            cocycle = special_cocycle(sela, phi, psi)
        except ValueError as e:
            _emit({"valid": False, "error": str(e)})
            return 1
        steps = []
        lifted = True
        for k in range(args.from_order, args.to_order):
            res = obstruction(cocycle, k + 1)
            steps.append(
                {
                    "power": res.power,
                    "vanishes": res.vanishes,
                    "class": _class_json(cocycle.sela, res.cls),
                }
            )
            if not res.vanishes:
                lifted = False
                break
            cocycle = res.lift
        _emit(
            {
                "valid": True,
                "from_order": args.from_order,
                "to_order": args.to_order,
                "steps": steps,
                "lifted": lifted,
            }
        )
        return 0 if lifted else 1

    raise _Usage("unknown jb action %r" % args.action)


def cmd_milnor(args):
    f = _poly_arg("--poly", args.poly, _vars_arg(args.vars))
    _emit({"dimension": milnor_dim(f)})
    return 0


def cmd_tangent_dgla(args):
    f = _poly_arg("--poly", args.poly, _vars_arg(args.vars))
    if args.truncate is not None:
        _cap(args.truncate, "--truncate")
        if args.truncate < 0:
            raise _Usage("--truncate must be nonnegative")
    tc = hypersurface_tangent_dgla(f)
    pc = tc.complex
    ideal = tc.h1_ideal()
    report = {
        "vars": list(pc.vars),
        "degrees": list(pc.degrees()),
        "ranks": [pc.rank(d) for d in pc.degrees()],
        "h1_ideal": [str(g) for g in ideal],
    }
    try:
        report["h1_dimension"] = quotient_dimension(ideal)
    except ValueError as e:
        report["h1_dimension"] = None
        report["note"] = str(e)
    if args.truncate is not None:
        report["truncated_h1"] = tc.truncated_h1(args.truncate)
        report["truncated_ranks"] = tc.truncated_ranks(args.truncate)
    _emit(report)
    return 0


def cmd_deform(args):
    if args.action != "lift":
        raise _Usage("unknown deform action %r" % args.action)
    _order_pair(args)
    vars = _vars_arg(args.vars)
    f = _poly_arg("--poly", args.poly, vars)
    g = _poly_arg("--direction", args.direction, vars)
    _cap(args.to_order, "--to-order")
    rep = lift_deformation(f, g, args.from_order, args.to_order)
    eq = rep.equation()
    _emit(
        {
            "equation": None if eq is None else str(eq),
            "from_order": rep.from_order,
            "to_order": rep.to_order,
            "steps": [
                {
                    "power": s.power,
                    "vanishes": s.vanishes,
                    "class": _class_json(rep.sela, s.cls),
                }
                for s in rep.steps
            ],
            "lifted": rep.succeeded,
        }
    )
    return 0 if rep.succeeded else 1


def cmd_resolution(args):
    if args.action != "check":
        raise _Usage("unknown resolution action %r" % args.action)
    data = _load_json(args.file)
    try:
        pc = PolyComplex.from_json(data)
    except ValueError as e:
        _emit({"ok": False, "error": str(e)})
        return 1
    _emit(
        {
            "ok": True,
            "vars": list(pc.vars),
            "degrees": list(pc.degrees()),
            "ranks": [pc.rank(d) for d in pc.degrees()],
        }
    )
    return 0


# -- selfcheck ----------------------------------------------------------------


def _fixture(name):
    return json.loads(resources.files("jbkit").joinpath("data/%s" % name).read_text())


def _suite_bernoulli(seed):
    want = _fixture("bernoulli.json")
    for key, val in sorted(want.items(), key=lambda kv: int(kv[0])):
        got = format_rational(bernoulli(int(key)))
        if got != val:
            return False, "bernoulli(%s) = %s, fixture says %s" % (key, got, val)
    n = max(int(k) for k in want)
    for m in range(1, n + 1):
        acc = Fraction(0)
        for k in range(m):
            acc += binomial(m + 1, k) * bernoulli(k)
        if bernoulli(m) != -acc / (m + 1):
            return False, "recurrence fails at %d" % m
    return True, "%d values against the stored table plus the recurrence" % (n + 1)


def _suite_bch(seed):
    want = _fixture("bch_reference.json")
    table = build_table(int(want["max_degree"]))
    got = {
        ",".join(str(d) for d in md): part.to_terms()
        for md, part in table.bidegree.items()
    }
    for key, terms in want["bigraded"].items():
        if got.get(key) != terms:
            return False, "bidegree %s disagrees with the stored series" % key
    if set(got) != set(want["bigraded"]):
        return False, "bidegree support differs from the stored series"
    return True, "series to degree %s against the stored table" % want["max_degree"]


def _suite_jb(seed):
    sela = Sela.from_json(_fixture("triangle_sela.json"))
    problems = sela.validate()
    if problems:
        return False, "bundled datum fails validation: %s" % "; ".join(problems)
    jb = jb_assemble(sela)
    bad = verify_d_squared(jb)
    if bad:
        deg, src, dst, v = bad[0]
        return False, "d*d has %d nonzero entries, first in degree %d: %s -> %s, coefficient %s" % (
            len(bad), deg, src, dst, format_rational(v)
        )
    rng = random.Random(seed)
    ring = ArtinLine(sela.artin_order)
    gauges = {}
    for v in sela.simplices(1):
        lie = sela.algebra(v)
        coeffs = {}
        for i in range(lie.dim):
            series = [0] + [Fraction(rng.randrange(-2, 3)) for _ in range(sela.artin_order - 1)]
            if any(series):
                coeffs[i] = ring.element(series)
        gauges[v] = LieElement(lie, ring, coeffs)
    psi = coboundary_gluing(sela, gauges)
    cocycle = special_cocycle(sela, {}, psi)
    residual = verify_cocycle(sela, cocycle)
    if residual:
        mono, v = residual[0]
        return False, "coboundary family is not a cycle (%d terms), first %s, coefficient %s" % (
            len(residual), mono, format_rational(v)
        )
    return True, "d*d = 0 on %s and one seeded coboundary cocycle" % (
        "dimensions " + ",".join(str(jb.dim(d)) for d in jb.degrees())
    )


def _suite_milnor(seed):
    rows = _fixture("milnor_table.json")
    for row in rows:
        f = parse_poly(row["poly"], tuple(row["vars"]))
        got = milnor_dim(f)
        if got != row["dimension"]:
            return False, "%s: computed %d, fixture says %d" % (row["poly"], got, row["dimension"])
    return True, "%d quotient dimensions" % len(rows)


_SUITES = {
    "bernoulli": _suite_bernoulli,
    "bch": _suite_bch,
    "jb": _suite_jb,
    "milnor": _suite_milnor,
}


def cmd_selfcheck(args):
    names = [args.suite] if args.suite else sorted(_SUITES)
    for name in names:
        if name not in _SUITES:
            raise _Usage("unknown suite %r (have: %s)" % (name, ", ".join(sorted(_SUITES))))
    results = []
    for name in names:
        try:
            ok, detail = _SUITES[name](args.seed)
        except (ValueError, AssertionError) as e:
            ok, detail = False, "%s: %s" % (type(e).__name__, e)
        results.append((name, ok, detail))
    if args.fmt == "json":
        _emit({name: {"pass": ok, "detail": detail} for name, ok, detail in results})
    else:
        for name, ok, detail in results:
            print("%-10s %s  %s" % (name, "pass" if ok else "FAIL", detail))
    return 0 if all(ok for _, ok, _ in results) else 1


# -- wiring -------------------------------------------------------------------


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built on the first run and reused.

    Reuse matters because an argparse tree is a web of reference cycles:
    a parser per run would leave one such tree per command for the
    cyclic garbage collector.
    """
    p = argparse.ArgumentParser(
        prog="jbkit",
        description="exact bracket series, glued complexes, hypersurface deformations",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    q = sub.add_parser("bernoulli", help="table of Bernoulli numbers")
    q.add_argument("--max", type=int, required=True)
    q.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    q.set_defaults(fn=cmd_bernoulli)

    q = sub.add_parser("bch", help="graded bracket composition series")
    q.add_argument("--max-degree", type=int, required=True)
    q.add_argument("--tri", action="store_true", help="include the trivariate split")
    q.set_defaults(fn=cmd_bch)

    q = sub.add_parser("jb", help="glued complexes: check, cohomology, cocycle, obstruct")
    q.add_argument("action", choices=("check", "cohomology", "cocycle", "obstruct"))
    q.add_argument("--data", required=True, help="gluing datum or family JSON file")
    q.add_argument("--degree", type=int, default=0)
    q.add_argument("--from-order", type=int, default=2)
    q.add_argument("--to-order", type=int, default=None,
                   help="default: one more than --from-order")
    q.set_defaults(fn=cmd_jb)

    q = sub.add_parser("milnor", help="dim Q[x]/(f, df), the Tjurina number; it is the "
                       "Milnor number when f is quasi-homogeneous")
    q.add_argument("--vars", required=True)
    q.add_argument("--poly", required=True)
    q.set_defaults(fn=cmd_milnor)

    q = sub.add_parser("tangent-dgla", help="tangent complex of a hypersurface")
    q.add_argument("--vars", required=True)
    q.add_argument("--poly", required=True)
    q.add_argument("--truncate", type=int, default=None)
    q.set_defaults(fn=cmd_tangent_dgla)

    q = sub.add_parser("deform", help="lift a family up the coefficient line")
    q.add_argument("action", choices=("lift",))
    q.add_argument("--vars", required=True)
    q.add_argument("--poly", required=True)
    q.add_argument("--direction", required=True)
    q.add_argument("--from-order", type=int, default=2)
    q.add_argument("--to-order", type=int, required=True)
    q.set_defaults(fn=cmd_deform)

    q = sub.add_parser("resolution", help="verify a complex of free modules from a file")
    q.add_argument("action", choices=("check",))
    q.add_argument("--file", required=True)
    q.set_defaults(fn=cmd_resolution)

    q = sub.add_parser("selfcheck", help="run the bundled verification suites")
    q.add_argument("--suite", default=None)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    q.set_defaults(fn=cmd_selfcheck)

    return p


def run(argv=None):
    """Parse argv and dispatch; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except _Usage as e:
        parser.print_usage(sys.stderr)
        print("jbkit: error: %s" % e, file=sys.stderr)
        return 2
    except _Invalid as e:
        _emit({"error": str(e), "problems": e.problems})
        return 1
    except ValueError as e:
        _emit({"error": str(e)})
        return 1


def main(argv=None):
    try:
        status = run(argv)
        sys.stdout.flush()
        return status
    except BrokenPipeError:  # stdout then points at devnull, so the final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
