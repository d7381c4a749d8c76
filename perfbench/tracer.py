"""Spans and counters around the calls into each jbkit layer.

The wrappers live here, in the benchmark, and patch the binding each
caller actually uses: jbkit modules import names directly, so
``jbcomplex.assemble.rank_kernel`` and ``exactnum.rank_kernel`` are
patched separately.  A span records (name, start, end, parent, job);
spans stay in memory and are written out when the pass ends.

Result hooks (sizes of kernels, matrices and bases) run outside every
span: the time they take is subtracted from the span clock, so busy and
self times do not include them.  The tracing overhead is reported by the
runner as traced minus untraced wall time.
"""

from __future__ import annotations

import json
import time

# Per-layer metrics reported by a traced run: name -> (unit, what it should move).
METRICS = {
    "exactnum.rank_kernel.calls": ("count", "jb_cohomology_s, wall_s on cohomology"),
    "exactnum.rank_kernel.busy_s": ("s", "jb_cohomology_s, wall_s on cohomology; ~0 on check"),
    "exactnum.rank_kernel.nnz_in": ("count", "jb_cohomology_s on cohomology"),
    "exactnum.rank_kernel.kernel_vectors": ("count", "jb_cohomology_s on cohomology"),
    "exactnum.rank_kernel.kernel_nnz": ("count", "jb_cohomology_s, peak_rss_mb on cohomology"),
    "exactnum.rank_kernel.kernel_max_bits": ("bits", "jb_cohomology_s on cohomology"),
    "jbcomplex.cohomology.calls": ("count", "jb_cohomology_s on cohomology"),
    "jbcomplex.cohomology.busy_s": ("s", "jb_cohomology_s on cohomology"),
    "jbcomplex.cohomology.self_s": ("s", "jb_cohomology_s on cohomology (representative sweep)"),
    "jbcomplex.assemble.calls": ("count", "jb_check_s on check"),
    "jbcomplex.assemble.busy_s": ("s", "jb_check_s on check; minor share of cohomology"),
    "jbcomplex.assemble.self_s": ("s", "jb_check_s on check"),
    "jbcomplex.assemble.monomials": ("count", "jb_check_s on check"),
    "jbcomplex.assemble.nnz": ("count", "jb_check_s, peak_rss_mb on check"),
    "jbcomplex.assemble.max_dim": ("count", "jb_check_s on check"),
    "jbcomplex.monomial_differential.calls": ("count", "jb_check_s on check"),
    "jbcomplex.monomial_differential.busy_s": ("s", "jb_check_s on check"),
    "exactnum.matmul.calls": ("count", "jb_check_s on check"),
    "exactnum.matmul.busy_s": ("s", "jb_check_s on check"),
    "exactnum.matmul.nnz_out": ("count", "jb_check_s on check"),
    "jbcomplex.verify_d_squared.busy_s": ("s", "jb_check_s on check"),
    "freelie.assoc_mul.calls": ("count", "bch_s, deform_lift_s on series; ~0 elsewhere"),
    "freelie.assoc_mul.busy_s": ("s", "bch_s, deform_lift_s on series; ~0 elsewhere"),
    "freelie.assoc_mul.terms_out": ("count", "bch_s, deform_lift_s on series"),
    "freelie.bracket.calls": ("count", "bch_s, deform_lift_s on series"),
    "freelie.bracket.busy_s": ("s", "bch_s, deform_lift_s on series"),
    "freelie.dynkin_lie.busy_s": ("s", "bch_s, deform_lift_s on series"),
    "freelie.word_cache.hits": ("count", "bch_s, deform_lift_s on series"),
    "freelie.word_cache.misses": ("count", "bch_s, deform_lift_s on series"),
    "bch.build_table.calls": ("count", "bch_s, deform_lift_s on series; ~0 elsewhere"),
    "bch.build_table.busy_s": ("s", "bch_s, deform_lift_s on series; <5% of wall elsewhere"),
    "bch.build_table.self_s": ("s", "bch_s, deform_lift_s on series"),
    "bch.build_table.max_degree": ("count", "bch_s on series"),
    "bch.trivariate.busy_s": ("s", "bch_s, deform_lift_s on series"),
    "jbcomplex.table_cache.builds": ("count", "deform_lift_s (cold first lift) on series"),
    "jbcomplex.table_cache.size": ("count", "deform_lift_s, peak_rss_mb on series"),
    "jbcomplex.polar_cache.size": ("count", "deform_lift_s, peak_rss_mb on series"),
    "jbcomplex.obstruction.calls": ("count", "jb_obstruct_s, deform_lift_s on series"),
    "jbcomplex.obstruction.busy_s": ("s", "jb_obstruct_s, deform_lift_s on series"),
    "jbcomplex.obstruction.self_s": ("s", "jb_obstruct_s, deform_lift_s on series"),
    "jbcomplex.special_cocycle.busy_s": ("s", "jb_obstruct_s, deform_lift_s on series"),
    "exactnum.solve.calls": ("count", "jb_obstruct_s, deform_lift_s on series"),
    "exactnum.solve.busy_s": ("s", "jb_obstruct_s, deform_lift_s on series"),
    "liecore.bracket.calls": ("count", "jb_obstruct_s, deform_lift_s on series"),
    "liecore.bracket.busy_s": ("s", "jb_obstruct_s, deform_lift_s on series"),
    "schemes.buchberger.calls": ("count", "deform_lift_s, wall_s on series (small share)"),
    "schemes.buchberger.busy_s": ("s", "deform_lift_s, wall_s on series (small share)"),
    "schemes.buchberger.basis_size": ("count", "deform_lift_s on series"),
    "schemes.lift.busy_s": ("s", "deform_lift_s on series"),
    "schemes.tangent.busy_s": ("s", "wall_s on series (small share)"),
    "jbcomplex.validate.busy_s": ("s", "wall_s on every workload"),
    "jbcomplex.validate.problems": ("count", "correctness: 0 on every workload"),
    "cli.run.calls": ("count", "job count of the workload"),
    "cli.run.self_s": ("s", "wall_s on every workload (parsing, loading, JSON output)"),
    "cli.output_bytes": ("B", "wall_s on every workload"),
    "jobs": ("count", "job count; must match between compared runs"),
}
# Busy time per layer: spans of the layer not nested in another span of it.
LAYERS = ("cli", "exactnum", "freelie", "bch", "liecore", "jbcomplex", "schemes")
for _layer in LAYERS + ("freelie_bch",):
    METRICS["layer.%s.busy_s" % _layer] = ("s", "wall_s on the workloads that load it")
# Shares of the traced wall time named by the workload choices.
SHARES = {
    "share.cohomology_elimination": (
        ("exactnum.rank_kernel.busy_s", "jbcomplex.cohomology.self_s"),
        "above 0.5 on cohomology",
    ),
    "share.check_assembly": (
        ("jbcomplex.assemble.busy_s", "exactnum.matmul.busy_s"),
        "above 0.5 on check",
    ),
    "share.series_freelie_bch": (("layer.freelie_bch.busy_s",), "above 0.5 on series"),
    "share.rank_kernel": (("exactnum.rank_kernel.busy_s",), "below 0.05 on check"),
    "share.build_table": (("bch.build_table.busy_s",), "below 0.05 on cohomology and check"),
}
for _name, (_parts, _note) in SHARES.items():
    METRICS[_name] = ("ratio", _note)
# Untraced per-command times, each the sum over that command's jobs.
COMMANDS = {
    "bch_s": "bch",
    "deform_lift_s": "deform lift",
    "jb_obstruct_s": "jb obstruct",
    "jb_cohomology_s": "jb cohomology",
    "jb_check_s": "jb check",
}
for _name, _cmd in COMMANDS.items():
    METRICS[_name] = ("s", "wall_s on the workloads that run %s" % _cmd)
METRICS["trace.wall_s"] = ("s", "traced wall time of the job list")
METRICS["trace.overhead_s"] = ("s", "traced minus untraced wall_s")
# Counts that measure the problem, not the work done on it: two runs
# are comparable only when these agree.
SIZES = (
    "jobs",
    "jbcomplex.assemble.monomials",
    "jbcomplex.assemble.nnz",
    "jbcomplex.assemble.max_dim",
    "bch.build_table.max_degree",
)


class Tracer:
    """Span and counter store for one pass; install() patches jbkit."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []  # [name id, start, end, parent index, job id]
        self._stack = []
        self.counts = {}
        self.shapes = []
        self.job = None
        self._skew = 0.0

    def clock(self):
        return time.perf_counter() - self._skew

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        self.counts[key] = max(self.counts.get(key, 0), n)

    def wrap(self, owner, attr, name, hook=None):
        """Replace owner.attr by a wrapper that records a span and runs hook."""
        fn = owner.__dict__[attr]
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [nid, self.clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                stack.pop()
            if hook is not None:
                t = time.perf_counter()
                hook(self, args, result)
                self._skew += time.perf_counter() - t
            return result

        setattr(owner, attr, wrapper)

    # -- summaries --------------------------------------------------------

    def _outermost_busy(self, same):
        """Sum of durations of spans with no ancestor for which same() holds."""
        spans, names = self.spans, self.names
        total = {}
        for rec in spans:
            key = same(names[rec[0]])
            p = rec[3]
            while p >= 0 and same(names[spans[p][0]]) != key:
                p = spans[p][3]
            if p < 0:
                total[key] = total.get(key, 0.0) + rec[2] - rec[1]
        return total

    def summary(self, wall):
        """Per-name calls, busy and self times, per-layer busy, and counters."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        calls = {}
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
            calls[rec[0]] = calls.get(rec[0], 0) + 1
        self_s = {}
        for i, rec in enumerate(spans):
            self_s[rec[0]] = self_s.get(rec[0], 0.0) + rec[2] - rec[1] - child[i]
        busy = self._outermost_busy(lambda n: n)
        out = {}
        for nid, name in enumerate(names):
            out[name + ".calls"] = calls.get(nid, 0)
            out[name + ".busy_s"] = busy.get(name, 0.0)
            out[name + ".self_s"] = self_s.get(nid, 0.0)
        for layer, value in self._outermost_busy(lambda n: n.split(".", 1)[0]).items():
            out["layer.%s.busy_s" % layer] = value
        series = self._outermost_busy(lambda n: n.split(".", 1)[0] in ("freelie", "bch"))
        out["layer.freelie_bch.busy_s"] = series.get(True, 0.0)
        out.update(self.counts)
        out["wall_s"] = wall
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


# -- hooks ----------------------------------------------------------------------


def _rank_kernel(tr, args, result):
    _, kernel = result
    tr.count("exactnum.rank_kernel.nnz_in", len(args[0].entries))
    tr.count("exactnum.rank_kernel.kernel_vectors", len(kernel))
    tr.count("exactnum.rank_kernel.kernel_nnz", sum(len(v) for v in kernel))
    bits = 0
    for v in kernel:
        for x in v.values():
            bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    tr.peak("exactnum.rank_kernel.kernel_max_bits", bits)


def _matmul(tr, args, result):
    tr.count("exactnum.matmul.nnz_out", len(result.entries))


def _assoc_mul(tr, args, result):
    tr.count("freelie.assoc_mul.terms_out", len(result.terms))


def _build_table(tr, args, result):
    tr.peak("bch.build_table.max_degree", result.max_degree)


def _assemble(tr, args, jb):
    shapes = {}
    for deg in jb.degrees():
        mat = jb.matrix(deg)
        shapes[str(deg)] = [mat.nrows, mat.ncols, len(mat.entries)]
    tr.shapes.append({"job": tr.job, "shapes": shapes})
    tr.count("jbcomplex.assemble.monomials", sum(jb.dim(d) for d in jb.degrees()))
    tr.count("jbcomplex.assemble.nnz", sum(s[2] for s in shapes.values()))
    tr.peak("jbcomplex.assemble.max_dim", max((jb.dim(d) for d in jb.degrees()), default=0))


def _validate(tr, args, problems):
    tr.count("jbcomplex.validate.problems", len(problems))


def _buchberger(tr, args, basis):
    tr.count("schemes.buchberger.basis_size", len(basis))


def install(tr):
    """Patch every layer boundary the workloads cross."""
    from jbkit import bch, cli, exactnum, freelie, liecore
    from jbkit.jbcomplex import assemble, obstruct, sela
    from jbkit.schemes import deform, tangent

    for owner in (exactnum, assemble):
        tr.wrap(owner, "rank_kernel", "exactnum.rank_kernel", _rank_kernel)
    for owner in (exactnum, obstruct):
        tr.wrap(owner, "solve", "exactnum.solve")
    tr.wrap(exactnum.SparseRatMatrix, "mul", "exactnum.matmul", _matmul)

    tr.wrap(freelie.AssocPoly, "mul", "freelie.assoc_mul", _assoc_mul)
    tr.wrap(freelie.FreeLieElement, "bracket", "freelie.bracket")
    for owner in (freelie, bch):
        tr.wrap(owner, "dynkin_lie", "freelie.dynkin_lie")

    for owner in (bch, cli, assemble):
        tr.wrap(owner, "build_table", "bch.build_table", _build_table)
    tr.wrap(bch, "_compose_trivariate", "bch.trivariate")

    tr.wrap(liecore.LieElement, "bracket", "liecore.bracket")

    tr.wrap(cli, "jb_assemble", "jbcomplex.assemble", _assemble)
    tr.wrap(assemble, "monomial_differential", "jbcomplex.monomial_differential")
    tr.wrap(cli, "jb_cohomology", "jbcomplex.cohomology")
    tr.wrap(cli, "verify_d_squared", "jbcomplex.verify_d_squared")
    tr.wrap(cli, "verify_cocycle", "jbcomplex.verify_cocycle")
    for owner in (cli, deform):
        tr.wrap(owner, "obstruction", "jbcomplex.obstruction")
    for owner in (cli, obstruct, deform):
        tr.wrap(owner, "special_cocycle", "jbcomplex.special_cocycle")
    tr.wrap(sela.Sela, "validate", "jbcomplex.validate", _validate)

    for owner in (tangent, deform):
        tr.wrap(owner, "buchberger", "schemes.buchberger", _buchberger)
    tr.wrap(cli, "lift_deformation", "schemes.lift")
    for attr in ("hypersurface_tangent_dgla", "milnor_dim"):
        tr.wrap(cli, attr, "schemes.tangent")
    for attr in ("h1_ideal", "h1_dimension", "truncated_ranks", "truncated_h1"):
        tr.wrap(tangent.TangentComplex, attr, "schemes.tangent")

    tr.wrap(cli, "run", "cli.run")


def final_counts(tr):
    """Cache sizes at the end of the pass (the process starts with them empty)."""
    from jbkit import freelie
    from jbkit.jbcomplex import assemble

    hits = misses = 0
    for fn in (freelie._bracketing, freelie._expand_word, freelie._leftnormed_expand):
        info = fn.cache_info()
        hits += info.hits
        misses += info.misses
    tr.counts["freelie.word_cache.hits"] = hits
    tr.counts["freelie.word_cache.misses"] = misses
    # every table in the cache was built in this pass
    tr.counts["jbcomplex.table_cache.builds"] = len(assemble._TABLE_CACHE)
    tr.counts["jbcomplex.table_cache.size"] = len(assemble._TABLE_CACHE)
    tr.counts["jbcomplex.polar_cache.size"] = len(assemble._POLAR_CACHE)
