"""Seeded inputs and job lists for the benchmark workloads.

Every workload is a fixed list of ``jbkit`` command lines.  The seed is
an argument of the benchmark; jbkit only ever sees the JSON files and
argv written here.

* ``series``: the bracket series and everything built on it.  The seed
  picks, for fixed exponent sets, which variable carries which exponent,
  the nonzero rational coefficients of the equations, the monomial
  direction of each lift and which vertex gets which gauge.
* ``cohomology`` and ``check``: triangle gluing data under a seeded
  diagonal change of basis by small nonzero rationals, applied to
  brackets, internal differential, representation and cofaces.  The
  datum stays isomorphic, so chain dimensions, nnz patterns and
  cohomology dimensions do not depend on the seed; coefficient sizes do.
  Those of the unscaled data are stored in ``expected.json``.

For any seed the recorded sizes are the same; a test holds the
generator to that.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from jbkit.exactnum import SparseRatMatrix, format_rational
from jbkit.jbcomplex import Sela, coboundary_gluing, factories
from jbkit.liecore import ArtinLine, LieElement, StructLie

WORKLOADS = ("series", "cohomology", "check")

# Small nonzero rationals for equations and lift directions.
SCALES = tuple(Fraction(x) for x in ("1", "-1", "2", "-2", "1/2", "-1/2"))
MAGNITUDES = (Fraction(1), Fraction(2), Fraction(1, 2))

# Fixed exponent sets; the seed assigns them to variables and picks the
# coefficients, so the local algebras keep their dimensions.
PLANE_CURVES = ((4, 5), (3, 7), (5, 6), (3, 5))
SURFACES = ((2, 3, 4), (3, 3, 3))
LIFT_ORDER = 7
TRUNCATE = 8

FACTORIES = {
    "nonabelian_triangle": factories.nonabelian_triangle,
    "dg_triangle": factories.dg_triangle,
}

# (factory, truncation order, degree) of every cohomology job.
COHOMOLOGY_JOBS = (
    ("dg_triangle", 5, 0),
    ("nonabelian_triangle", 4, -3),
    ("nonabelian_triangle", 4, -2),
    ("nonabelian_triangle", 4, -1),
    ("dg_triangle", 4, 0),
    ("dg_triangle", 4, 1),
)
CHECK_JOBS = (("nonabelian_triangle", 5), ("dg_triangle", 5))
COCYCLE_FAMILIES = 2

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# -- diagonal change of basis -------------------------------------------------


def _scaled_lie(lie, s):
    """The same algebra in the basis e'_i = s_i e_i."""
    brackets = {
        (a, b): {c: v * s[a] * s[b] / s[c] for c, v in targets.items()}
        for (a, b), targets in lie.brackets.items()
    }
    differential = None
    if lie.differential is not None:
        differential = SparseRatMatrix(lie.dim, lie.dim)
        for (c, a), v in lie.differential.entries.items():
            differential[c, a] = v * s[a] / s[c]
    rep = None
    if lie.rep is not None:
        rep = {
            name: [[v * s[lie.index[name]] for v in row] for row in mat]
            for name, mat in lie.rep.items()
        }
    return StructLie(lie.names, lie.degrees, brackets, differential, rep)


def scaled_sela(sela, rng):
    """An isomorphic copy of ``sela`` under a seeded diagonal basis change.

    Each simplex scales its basis by the magnitudes 1, 2, 1/2, 1, ... in
    a seeded order and with seeded signs: the coefficients change with
    the seed, their overall size, which sets the cost of elimination,
    does not.
    """
    scale = {}
    for simplex, lie in sela.algebras.items():
        mags = [MAGNITUDES[i % len(MAGNITUDES)] for i in range(lie.dim)]
        rng.shuffle(mags)
        scale[simplex] = [m * rng.choice((1, -1)) for m in mags]
    algebras = {simplex: _scaled_lie(lie, scale[simplex]) for simplex, lie in sela.algebras.items()}
    cofaces = {}
    for (inner, outer), mat in sela.cofaces.items():
        out = SparseRatMatrix(mat.nrows, mat.ncols)
        for (r, c), v in mat.entries.items():
            out[r, c] = v * scale[inner][c] / scale[outer][r]
        cofaces[(inner, outer)] = out
    return Sela(sela.indices, algebras, cofaces, sela.artin_order)


def sela_size(sela):
    return {
        "order": sela.artin_order,
        "basis": sum(lie.dim for lie in sela.algebras.values()),
        "bracket_terms": sum(
            len(t) for lie in sela.algebras.values() for t in lie.brackets.values()
        ),
        "coface_nnz": sum(len(m.entries) for m in sela.cofaces.values()),
    }


# -- gauge families -------------------------------------------------------------


def gauge_family(sela, rng):
    """Coboundary family of seeded degree-zero vertex gauges, as CLI JSON.

    The gauges are three fixed elements, generic enough that no
    coefficient cancels, and the seed deals them out to the vertices:
    the cost of an obstruction run depends on how the coefficients of the
    three gauges combine, and arbitrary seeded values moved it tenfold.
    """
    ring = ArtinLine(sela.artin_order)
    vertices = sela.simplices(1)
    deal = list(range(len(vertices)))
    rng.shuffle(deal)
    gauges = {}
    for v, g in zip(vertices, deal):
        lie = sela.algebra(v)
        coeffs = {
            i: ring.element(
                [0] + [Fraction((-1) ** (i + k) * (g + i + 2), k) for k in range(1, sela.artin_order)]
            )
            for i in lie.basis_indices(0)
        }
        gauges[v] = LieElement(lie, ring, coeffs)
    psi = coboundary_gluing(sela, gauges)
    records = {}
    for edge, elt in sorted(psi.items()):
        records["".join(str(v) for v in edge)] = [
            {"name": elt.lie.names[i], "power": k, "coeff": format_rational(c)}
            for i, a in sorted(elt.coeffs.items())
            for k, c in enumerate(a.coeffs)
            if c
        ]
    gauge_terms = sum(len(g.coeffs) for g in gauges.values())
    return {"sela": sela.to_json(), "psi": records}, gauge_terms


# -- polynomials ----------------------------------------------------------------


def _poly_text(vars, terms):
    """c1*m1+c2*m2+... from (coefficient, exponent vector) pairs."""
    out = []
    for coeff, exps in terms:
        mono = "*".join(
            v if e == 1 else "%s^%d" % (v, e) for v, e in zip(vars, exps) if e
        ) or "1"
        c = format_rational(coeff)
        out.append({"1": mono, "-1": "-" + mono}.get(c, "%s*%s" % (c, mono)))
    return "+".join(out).replace("+-", "-")


def _diagonal_equation(vars, exponents, rng):
    """sum of c_i x_i^a_i with a seeded assignment of exponents to variables."""
    exps = list(exponents)
    rng.shuffle(exps)
    terms = []
    for i, a in enumerate(exps):
        e = [0] * len(vars)
        e[i] = a
        terms.append((rng.choice(SCALES), e))
    return _poly_text(vars, terms), exps


# -- job lists ------------------------------------------------------------------


class _Writer:
    def __init__(self, workdir, rel):
        self.workdir = workdir
        self.rel = rel

    def write(self, name, obj):
        with open(os.path.join(self.workdir, name), "w") as fh:
            json.dump(obj, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        return os.path.join(self.rel, name)


def _series(rng, out):
    jobs = [
        {"cmd": "bch", "argv": ["bch", "--max-degree", "8"],
         "check": {"kind": "bch", "max_degree": 8, "tri": False}, "size": {"max_degree": 8}},
        {"cmd": "bch", "argv": ["bch", "--max-degree", "6", "--tri"],
         "check": {"kind": "bch", "max_degree": 6, "tri": True}, "size": {"max_degree": 6, "tri": 1}},
    ]
    vars2 = ("x", "y")
    for exponents in PLANE_CURVES:
        poly, exps = _diagonal_equation(vars2, exponents, rng)
        # a monomial of the local algebra, away from the unit
        i = rng.randrange(1, exps[0] - 1)
        j = rng.randrange(0, exps[1] - 1)
        direction = _poly_text(vars2, [(rng.choice(SCALES), (i, j))])
        jobs.append({
            "cmd": "deform lift",
            "argv": ["deform", "lift", "--vars", "x,y", "--poly=" + poly,
                     "--direction=" + direction, "--to-order", str(LIFT_ORDER)],
            "check": {"kind": "lift", "from_order": 2, "to_order": LIFT_ORDER},
            "size": {"exponents": sorted(exponents), "to_order": LIFT_ORDER},
        })
    sela = factories.nonabelian_triangle(4)
    family, gauge_terms = gauge_family(sela, rng)
    path = out.write("obstruct_family.json", family)
    jobs.append({
        "cmd": "jb obstruct",
        "argv": ["jb", "obstruct", "--data", path, "--from-order", "4", "--to-order", "6"],
        "check": {"kind": "obstruct", "from_order": 4, "to_order": 6},
        "size": dict(sela_size(sela), gauge_terms=gauge_terms, to_order=6),
    })
    vars3 = ("x", "y", "z")
    for exponents in SURFACES:
        poly, exps = _diagonal_equation(vars3, exponents, rng)
        mu = 1
        for a in exps:
            mu *= a - 1
        size = {"exponents": sorted(exponents)}
        jobs.append({
            "cmd": "milnor", "argv": ["milnor", "--vars", "x,y,z", "--poly=" + poly],
            "check": {"kind": "milnor", "dimension": mu}, "size": size,
        })
        jobs.append({
            "cmd": "tangent-dgla",
            "argv": ["tangent-dgla", "--vars", "x,y,z", "--poly=" + poly, "--truncate", str(TRUNCATE)],
            "check": {"kind": "tangent", "h1": mu}, "size": dict(size, truncate=TRUNCATE),
        })
    return jobs


def _scaled_job_input(name, order, rng, out, tag):
    sela = scaled_sela(FACTORIES[name](order), rng)
    problems = sela.validate()
    if problems:
        raise ValueError("generated datum %s/%d is invalid: %s" % (name, order, problems))
    return out.write("%s_%s_%d.json" % (tag, name, order), sela.to_json()), sela


def _cohomology(rng, out):
    expected = load_expected()
    jobs = []
    for n, (name, order, degree) in enumerate(COHOMOLOGY_JOBS):
        path, sela = _scaled_job_input(name, order, rng, out, "c%d" % n)
        key = "%s/%d" % (name, order)
        jobs.append({
            "cmd": "jb cohomology",
            "argv": ["jb", "cohomology", "--data", path, "--degree", str(degree)],
            "check": {"kind": "cohomology",
                      "dimension": expected["cohomology"]["%s/%d" % (key, degree)]},
            "size": dict(sela_size(sela), degree=degree, shapes=expected["shapes"][key]),
        })
    return jobs


def _check(rng, out):
    expected = load_expected()
    jobs = []
    for name, order in CHECK_JOBS:
        path, sela = _scaled_job_input(name, order, rng, out, "k")
        key = "%s/%d" % (name, order)
        jobs.append({
            "cmd": "jb check",
            "argv": ["jb", "check", "--data", path],
            "check": {"kind": "check", "dimensions": expected["chain_dims"][key]},
            "size": dict(sela_size(sela), shapes=expected["shapes"][key]),
        })
    for n in range(COCYCLE_FAMILIES):
        sela = scaled_sela(factories.nonabelian_triangle(4), rng)
        family, gauge_terms = gauge_family(sela, rng)
        path = out.write("cocycle_family_%d.json" % n, family)
        jobs.append({
            "cmd": "jb cocycle",
            "argv": ["jb", "cocycle", "--data", path],
            "check": {"kind": "cocycle"},
            "size": dict(sela_size(sela), gauge_terms=gauge_terms,
                         shapes=expected["shapes"]["nonabelian_triangle/4"]),
        })
    return jobs


_BUILDERS = {"series": _series, "cohomology": _cohomology, "check": _check}


def generate(workload, seed, workdir, rel):
    """Write the inputs of one workload into ``workdir``; return its job list.

    ``rel`` is ``workdir`` as the jobs name it, relative to the directory
    the jobs run in.  The job list is also written to ``jobs.json``.
    """
    if workload not in _BUILDERS:
        raise ValueError("unknown workload %r (have: %s)" % (workload, ", ".join(WORKLOADS)))
    os.makedirs(workdir, exist_ok=True)
    out = _Writer(workdir, rel)
    rng = random.Random("%s/%d" % (workload, seed))
    jobs = _BUILDERS[workload](rng, out)
    for n, job in enumerate(jobs):
        job["id"] = "%s-%02d" % (workload, n)
    out.write("jobs.json", {"workload": workload, "seed": seed, "jobs": jobs})
    return jobs
