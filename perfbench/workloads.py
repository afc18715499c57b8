"""The benchmark's workloads: seeded lists of asreg2 CLI jobs and their output checks.

A workload is a fixed list of job templates.  Each template names one
configuration (family, weights, r, ...) and the argv variants that are
equivalent in cost but differ in input: which alpha of a class, which
orientation of a target.  A round is one variant of every template, drawn
and shuffled by the seed, so every seed runs the same mix of sizes and the
end-to-end figures of two seeds are comparable.  The benchmark cycles the
round in a closed loop with one client.

Every argv is admissible by construction: coprime weights, ``r | q+1`` for
the Jordan plane, and canonical targets ``(c*wx, c*wy)`` that the covering
quiver reaches.  The full variant space is what ``record.py`` replays to
fill ``expected.json``.

Every round has 25 jobs: in whole rounds the median then falls on the 13th
and the 90th percentile on the 23rd template by cost, mid-way through its
instances rather than on a boundary between two templates.

This module does not import asreg2 at import time, so the parent process
of a run can load it without the package on its path.
"""

import hashlib
import json
import random
from dataclasses import dataclass

ALPHAS = {
    "one": ("1",),
    "minus_one": ("-1",),
    "rational": ("2/3", "-5/7", "7/4", "3/5", "-4/9"),
    "zeta3": ("zeta(3)", "zeta(3)^2"),
    "zeta5": ("zeta(5)", "zeta(5)^2", "zeta(5)^3", "zeta(5)^4"),
    "zeta7": tuple("zeta(7)^%d" % k for k in range(1, 7)),
}


@dataclass(frozen=True)
class Job:
    label: str  # the template this job was drawn from
    argv: tuple
    params: tuple  # (key, value) pairs the output checks read

    def param(self, key):
        return dict(self.params)[key]

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    templates: tuple  # of tuples of Job, one tuple per template
    warmup_labels: tuple  # templates whose first variant runs during set-up

    def round(self, seed):
        """One seeded variant of every template, in seeded order."""
        rng = random.Random("%s:%d" % (self.name, seed))
        jobs = [rng.choice(variants) for variants in self.templates]
        rng.shuffle(jobs)
        return jobs

    def warmup(self):
        first = {variants[0].label: variants[0] for variants in self.templates}
        return [first[label] for label in self.warmup_labels]

    def space(self):
        """Every job any seed can draw."""
        return [job for variants in self.templates for job in variants]


def _quantum_flags(wx, wy, alpha):
    return ("--wx", str(wx), "--wy", str(wy), "--alpha=" + alpha)


def _jordan_flags(q):
    return ("--family", "jordan", "--wy", str(q))


def _ample_quantum(alpha_class, wx, wy, r):
    label = "quantum %d,%d r=%d %s" % (wx, wy, r, alpha_class)
    return tuple(
        Job(label, ("ample",) + _quantum_flags(wx, wy, a) + ("--r", str(r), "--format", "json"), ())
        for a in ALPHAS[alpha_class]
    )


def _ample_jordan(q, r):
    label = "jordan q=%d r=%d" % (q, r)
    return (Job(label, ("ample",) + _jordan_flags(q) + ("--r", str(r), "--format", "json"), ()),)


def _check(family, wx, wy, r, alpha_class=None):
    if family == "jordan":
        label = "jordan q=%d r=%d" % (wy, r)
        flags = [_jordan_flags(wy)]
    else:
        label = "quantum %d,%d r=%d %s" % (wx, wy, r, alpha_class)
        flags = [_quantum_flags(wx, wy, a) for a in ALPHAS[alpha_class]]
    return tuple(Job(label, ("check",) + f + ("--r", str(r), "--format", "json"), ())
                 for f in flags)


def _reflect(wx, wy, c):
    label = "covering %d,%d c=%d" % (wx, wy, c)
    decorations = [_quantum_flags(wx, wy, a) for a in ("1", "-1", "2/3", "zeta(5)")]
    if wx == 1:
        decorations.append(_jordan_flags(wy))
    jobs = []
    for flags in decorations:
        # the canonical quiver of type (i, j) is that of type (j, i)
        for i, j in ((c * wx, c * wy), (c * wy, c * wx)):
            argv = ("reflect", "search") + flags + (
                "--c", str(c), "--target-i", str(i), "--target-j", str(j), "--format", "json")
            jobs.append(Job(label, argv, (("wx", wx), ("wy", wy), ("c", c), ("i", i), ("j", j))))
    return tuple(jobs)


AMPLE_QUANTUM = Workload(
    name="ample-quantum",
    why="ample on the quantum plane: every product is one monomial, so the time goes to "
        "skew.ideal_e_dims and its char, reduce_product and Echelon.add calls",
    templates=tuple(
        [_ample_quantum(cls, wx, wy, 2) for cls, (wx, wy) in zip(
            ("zeta7", "zeta5", "rational", "zeta3", "minus_one", "zeta7", "zeta5", "one", "rational"),
            ((1, 1), (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (3, 5), (1, 5)))]
        + [_ample_quantum(cls, wx, wy, 3) for cls, (wx, wy) in zip(
            ("zeta5", "one", "rational", "minus_one", "rational", "zeta3"),
            ((1, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)))]
        + [_ample_quantum(cls, wx, wy, 4) for cls, (wx, wy) in zip(
            ("one", "rational", "zeta3", "zeta5"),
            ((1, 1), (1, 3), (3, 4), (2, 3)))]
        + [_ample_quantum("one", 4, 5, 2),
           _ample_quantum("minus_one", 1, 3, 3),
           _ample_quantum("zeta3", 1, 4, 3),
           _ample_quantum("rational", 3, 5, 4),
           _ample_quantum("minus_one", 1, 2, 5),
           _ample_quantum("one", 1, 1, 8)]
    ),
    warmup_labels=("quantum 3,5 r=2 one", "quantum 1,4 r=2 minus_one"),
)

AMPLE_JORDAN = Workload(
    name="ample-jordan",
    why="ample on the Jordan plane: products are not monomial, so linalg does real rational "
        "elimination and cyclotomic/fractions arithmetic dominates",
    templates=tuple(_ample_jordan(q, r) for q, r in (
        (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1),
        (1, 2), (3, 2), (5, 2), (7, 2), (9, 2), (11, 2), (13, 2), (15, 2), (17, 2), (19, 2),
        (21, 2), (23, 2), (2, 3), (5, 3), (8, 3), (11, 3), (14, 3), (3, 4))),
    warmup_labels=("jordan q=1 r=2", "jordan q=5 r=2"),
)

CHECK_SUITE = Workload(
    name="check-suite",
    why="check on quantum (rational, zeta(5)) and Jordan configs on both sides of the ell*r <= 36 "
        "oracle gate: the Lambda idempotent report, corner checks and skew products dominate",
    templates=(
        # ell*r <= 36: the Gabriel oracle runs
        _check("quantum", 1, 1, 2, "one"),
        _check("quantum", 1, 1, 3, "zeta5"),
        _check("quantum", 1, 2, 3, "one"),
        _check("quantum", 1, 2, 4, "rational"),
        _check("quantum", 2, 3, 3, "rational"),
        _check("quantum", 2, 3, 2, "zeta5"),
        _check("quantum", 2, 3, 4, "zeta5"),
        _check("quantum", 1, 3, 3, "zeta5"),
        _check("quantum", 3, 4, 3, "rational"),
        _check("quantum", 3, 5, 2, "one"),
        _check("quantum", 3, 5, 3, "zeta5"),
        _check("quantum", 2, 7, 4, "one"),
        _check("jordan", 1, 1, 2),
        _check("jordan", 1, 2, 3),
        _check("jordan", 1, 3, 2),
        _check("jordan", 1, 5, 2),
        _check("jordan", 1, 5, 3),
        _check("jordan", 1, 8, 3),
        _check("jordan", 1, 11, 3),
        # ell*r > 36: the oracle is skipped
        _check("quantum", 4, 7, 4, "one"),
        _check("quantum", 5, 7, 4, "rational"),
        _check("quantum", 5, 8, 3, "rational"),
        _check("quantum", 7, 9, 3, "zeta5"),
        _check("jordan", 1, 11, 4),
        _check("jordan", 1, 14, 3),
    ),
    warmup_labels=("quantum 2,3 r=2 zeta5", "jordan q=3 r=2"),
)

REFLECT_SEARCH = Workload(
    name="reflect-search",
    why="reflect search from covering quivers to their canonical type: pure quivers combinatorics "
        "with no field arithmetic, the control for every arithmetic change",
    templates=tuple(_reflect(wx, wy, c) for wx, wy, c in (
        (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 2), (1, 2, 3), (1, 2, 4),
        (1, 3, 2), (1, 3, 3), (2, 3, 1), (2, 3, 2), (1, 4, 2), (1, 4, 3),
        (1, 5, 1), (1, 5, 2), (3, 4, 1), (2, 5, 1), (3, 5, 1), (1, 6, 1), (1, 6, 2), (4, 5, 1),
        (1, 7, 1), (1, 7, 2), (2, 7, 1), (3, 7, 1), (4, 7, 1))),
    warmup_labels=("covering 1,2 c=2", "covering 2,5 c=1"),
)

WORKLOADS = {w.name: w for w in (AMPLE_QUANTUM, AMPLE_JORDAN, CHECK_SUITE, REFLECT_SEARCH)}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(workload, job, rc, text, expected):
    """Problems with one job's result; an empty list means it verified.

    ``expected`` is the parsed ``expected.json``.  Reflection witnesses are
    replayed with the library's own ``bgp_reflect``/``quiver_isomorphic``,
    so call this outside any timed or traced region.
    """
    if rc != 0:
        return ["exit status %r" % (rc,)]
    try:
        out = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    result = out.get("result", {})
    problems = []
    if workload == "ample-quantum" or workload == "ample-jordan":
        want = "FINITE-UP-TO-%d" % out["params"]["max_degree"]
        if result.get("verdict") != want:
            problems.append("verdict %r, expected %r" % (result.get("verdict"), want))
        if result.get("total_dim") != sum(result.get("dims", [])):
            problems.append("total_dim != sum(dims)")
    elif workload == "check-suite":
        if result.get("ok") is not True:
            problems.append("check reported ok=%r" % result.get("ok"))
        names = sorted(c["name"] for c in result.get("checks", []))
        if names != expected["check_names"].get(job.label):
            problems.append("checks that ran differ from those recorded for %s" % job.label)
    elif workload == "reflect-search":
        problems += _replay(job, result)
    want = expected["digests"].get(job.key)
    if want is None:
        problems.append("no recorded digest")
    elif digest(text) != want:
        problems.append("output differs from the recorded digest")
    return problems


def _replay(job, result):
    from asreg2.algebra import quantum_spec
    from asreg2.quivers import bgp_reflect, covering_quiver, make_canonical_quiver, quiver_isomorphic

    if result.get("found") is not True:
        return ["no reflection sequence found"]
    state = covering_quiver(quantum_spec(job.param("wx"), job.param("wy"), 1), job.param("c"))
    try:
        for v in result["sequence"]:
            state = bgp_reflect(state, v)
    except ValueError as exc:
        return ["witness does not replay: %s" % exc]
    target = make_canonical_quiver(job.param("i"), job.param("j"))
    if quiver_isomorphic(state, target) is None:
        return ["replayed witness is not isomorphic to the target"]
    return []
