"""The four benchmark workloads: fixed job lists with typed-in answers.

Every job calls the same library entry point that a ``cproj`` command calls
and returns ``(checks, answers)``: the library's own ``Check`` records and a
dict of computed values.  The expected answers below are literals; the
benchmark never recomputes them with the code under test.  Most come from the
catalog's published closed forms (symmetry dimensions, bounds, mobility
degrees, and the 15 = (4+1)(4+2)/2 unconstrained mobility solutions of flat
C^2) and, for the structure counts, from binomial counts of the ansatz boxes
with rank = columns - kernel dimension.  The few without a closed form (the
derived series and the unconstrained mobility kernels of submax-metric) were
recorded on the seed commit.

``_STRUCT`` holds exact counts that only the traced run can see: for each
job, the ansatz spaces built, as ``(kept, candidates)``, and the linear
systems assembled by ``SystemBuilder.kernel``, as ``(columns, rank)``, both in
call order.  Row counts are recorded by the trace but not gated, because row
assembly may legitimately drop duplicate rows.

Why each workload exists and how big it was on the seed commit is in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Job:
    label: str
    kind: str  # "verify", "system", "metric", "table", "deform", "algebra"
    args: tuple
    expected: dict
    structure: dict = field(default=None)


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    models: tuple = ()  # (name, n) manifests parsed during set-up
    algebras: tuple = ()  # algebra manifests parsed during set-up


# -- answers ---------------------------------------------------------------------

# Check names of the library batteries whose computed value is an answer.
ANSWER_CHECKS = {
    "c-projective symmetry dimension": "symmetry_dim",
    "degree of mobility": "mobility",
    "parallel 1-form space dimension": "parallel_forms_dim",
    "holomorphic isometry dimension": "isometry_dim",
    "homothety dimension": "homothety_dim",
    "unconstrained symmetric kernel (reported)": "unconstrained_dim",
}

# Bound table: n -> computed algebraic bound for types I, II, III, IV, then
# the overall submaximal dimension (Kruglikov-The closed forms).
TABLE = {
    2: ((8, 8, 8, 8), 8),
    3: ((16, 16, 18, 16), 18),
    4: ((26, 28, 28, 28), 28),
    5: ((40, 44, 42, 44), 44),
    6: ((58, 64, 60, 64), 64),
}

TABLE_N = (2, 6)  # `cproj table` with its default range


def _verify(model, n, symmetry_dim, **more):
    exp = {"symmetry_dim": symmetry_dim, "all_checks_pass": True}
    exp.update(more)
    return Job(f"verify {model} n={n}", "verify", (model, n), exp, _STRUCT.get((model, n)))


def _system(model, n, dim):
    exp = {
        "symmetry_dim": dim,
        "stabilized": True,
        "verified": True,
        "closed_under_bracket": True,
    }
    return Job(f"cproj_system {model} n={n}", "system", (model, n), exp, _STRUCT.get(("system", model, n)))


# Exact counts seen by the traced run.  For a total-degree-d ansatz on 2n real
# variables, kept = C(2n+d, d) and candidates = (d+1)^(2n); columns = kept*2n;
# rank = columns - kernel dimension.
_STRUCT = {
    # verify --fast jobs (no enlarged re-solve)
    # flat and submax-metric also run the metric battery: the mobility system
    # with and without the hermitian rows, parallel forms, and the isometry
    # and homothety systems, which stabilize even under --fast
    ("flat", 2): {"ansatz": [(15, 81), (15, 81)], "solves": [(60, 44), (150, 141), (150, 135)]},
    ("type1", 3): {"ansatz": [(84, 4096)], "solves": [(504, 488)]},
    ("type1-n2", 2): {"ansatz": [(35, 256)], "solves": [(140, 134)]},
    ("type2", 2): {"ansatz": [(15, 81)], "solves": [(60, 52)]},
    ("type2", 3): {"ansatz": [(28, 729)], "solves": [(168, 152)]},
    ("type3", 3): {"ansatz": [(28, 729)], "solves": [(168, 150)]},
    ("nonminimal", 2): {"ansatz": [(15, 81)], "solves": [(60, 52)]},
    ("submax-metric", 2): {
        "ansatz": [(15, 81), (15, 81), (15, 81), (15, 81), (35, 256), (15, 81), (35, 256), (15, 81)],
        "solves": [(60, 52), (150, 148), (150, 146), (60, 58), (60, 54), (140, 134),
                   (61, 54), (141, 134), (60, 52)],
    },
    ("cp1xc", 2): {"ansatz": [(35, 256)], "solves": [(140, 133)]},
    # cproj_system with stabilization: base solve, then the enlarged one
    ("system", "type2", 3): {"ansatz": [(28, 729), (84, 4096)], "solves": [(168, 152), (504, 488)]},
    ("system", "type2", 4): {"ansatz": [(45, 6561), (165, 65536)], "solves": [(360, 332), (1320, 1292)]},
    ("system", "type2", 5): {"ansatz": [(66, 59049), (286, 1048576)], "solves": [(660, 616), (2860, 2816)]},
    # metric_battery with stabilization: the mobility system (hermitian,
    # unconstrained, enlarged hermitian), parallel forms, then at n=2 the
    # isometry, homothety and c-projective systems
    ("metric", "submax-metric", 2): {
        "ansatz": [(15, 81), (35, 256), (15, 81), (15, 81), (35, 256), (15, 81), (35, 256), (15, 81)],
        "solves": [(150, 148), (150, 146), (350, 348), (60, 58), (60, 54), (140, 134),
                   (61, 54), (141, 134), (60, 52)],
    },
    ("metric", "submax-metric", 3): {
        "ansatz": [(28, 729), (84, 4096), (28, 729)],
        "solves": [(588, 583), (588, 577), (1764, 1759), (168, 164)],
    },
}


WORKLOADS = {}


def _add(w):
    WORKLOADS[w.name] = w


_add(
    Workload(
        "catalog",
        (
            _verify("flat", 2, 16, mobility=9, unconstrained_dim=15),
            _verify("type1", 3, 16),
            _verify("type1-n2", 2, 6),
            _verify("type2", 2, 8),
            _verify("type2", 3, 16),
            _verify("type3", 3, 18),
            _verify("nonminimal", 2, 8),
            _verify(
                "submax-metric", 2, 8,
                mobility=2, unconstrained_dim=4, parallel_forms_dim=2, isometry_dim=6,
                homothety_dim=7,
            ),
            _verify("cp1xc", 2, 7),
        ),
        models=(
            ("flat", 2), ("type1", 3), ("type1-n2", 2), ("type2", 2), ("type2", 3),
            ("type3", 3), ("nonminimal", 2), ("submax-metric", 2), ("cp1xc", 2),
        ),
    )
)

_add(
    Workload(
        "scaling",
        (
            _system("type2", 3, 16),
            _system("type2", 4, 28),
            _system("type2", 5, 44),
        ),
        models=(("type2", 3), ("type2", 4), ("type2", 5)),
    )
)

_add(
    Workload(
        "mobility",
        (
            Job(
                "metric submax-metric n=2", "metric", ("submax-metric", 2),
                {"mobility": 2, "unconstrained_dim": 4, "parallel_forms_dim": 2,
                 "isometry_dim": 6, "homothety_dim": 7, "all_checks_pass": True},
                _STRUCT[("metric", "submax-metric", 2)],
            ),
            Job(
                "metric submax-metric n=3", "metric", ("submax-metric", 3),
                {"mobility": 5, "unconstrained_dim": 11, "parallel_forms_dim": 4,
                 "all_checks_pass": True},
                _STRUCT[("metric", "submax-metric", 3)],
            ),
        ),
        models=(("submax-metric", 2), ("submax-metric", 3), ("type2", 2), ("type2", 3)),
    )
)

_DEFORM = tuple(
    Job(
        f"deform {t} n={n}", "deform", (t, n),
        {"jacobi_closes": True, "residual_is_cochain_square": True, "all_checks_pass": True},
    )
    for t in ("I", "II", "III", "IV")
    for n in (3, 4, 5)
)

_ALGEBRAS = (
    Job("algebra s", "algebra", ("s",), {"jacobi": True, "derived_series": (8, 6, 3, 0), "all_checks_pass": True}),
    Job("algebra s-prime", "algebra", ("s-prime",), {"jacobi": True, "derived_series": (6, 5, 3, 0), "all_checks_pass": True}),
    Job("algebra s-double-prime", "algebra", ("s-double-prime",), {"jacobi": True, "derived_series": (8, 8), "all_checks_pass": True}),
    Job("algebra lambda-family", "algebra", ("lambda-family",), {"jacobi": True, "all_checks_pass": True}),
    Job("algebra sl2", "algebra", ("sl2",), {"jacobi": True, "derived_series": (3, 3), "all_checks_pass": True}),
)

_add(
    Workload(
        "bounds",
        (
            Job(
                f"table n={TABLE_N[0]}..{TABLE_N[1]}", "table", TABLE_N,
                {
                    "bounds": {n: TABLE[n][0] for n in range(TABLE_N[0], TABLE_N[1] + 1)},
                    "overall": {n: TABLE[n][1] for n in range(TABLE_N[0], TABLE_N[1] + 1)},
                    "rigid": True,
                    "all_checks_pass": True,
                },
            ),
        )
        + _DEFORM
        + _ALGEBRAS,
        algebras=("s", "s-prime", "s-double-prime", "lambda-family", "sl2"),
    )
)


# -- running one job ------------------------------------------------------------


def _battery_answers(checks):
    out = {}
    for c in checks:
        key = ANSWER_CHECKS.get(c.check)
        if key is not None:
            out[key] = c.computed
    out["all_checks_pass"] = all(c.passed for c in checks)
    return out


def run_job(job):
    """Run one job through the library; returns (checks, answers)."""
    from cprojver import catalog, cli, symsolve, verify

    if job.kind == "verify":
        model, n = job.args
        checks = cli._verify_one(model, n, True)
        return checks, _battery_answers(checks)
    if job.kind == "system":
        model, n = job.args
        spec = catalog.builtin(model, n)
        res = symsolve.cproj_system(spec, catalog.model_ansatz(spec), stabilize=True)
        return [], {
            "symmetry_dim": res.dim,
            "stabilized": res.stabilized,
            "verified": res.verified,
            "closed_under_bracket": res.closed_under_bracket,
        }
    if job.kind == "metric":
        model, n = job.args
        checks = verify.metric_battery(model, n, stabilize=True)
        return checks, _battery_answers(checks)
    if job.kind == "table":
        rows, checks = verify.table_battery(*job.args)
        types = ("I", "II", "III", "IV")
        answers = {
            "bounds": {r.n: tuple(r.bounds[t] for t in types) for r in rows},
            "overall": {r.n: r.overall for r in rows},
            "rigid": all(r.rigid for r in rows),
            "all_checks_pass": all(c.passed for c in checks),
        }
        return checks, answers
    if job.kind == "deform":
        checks = verify.deformation_battery(*job.args)
        return checks, {
            "jacobi_closes": checks[0].computed,
            "residual_is_cochain_square": checks[1].computed,
            "all_checks_pass": all(c.passed for c in checks),
        }
    if job.kind == "algebra":
        (name,) = job.args
        checks = verify.algebra_battery(name)
        answers = {"jacobi": checks[0].passed, "all_checks_pass": all(c.passed for c in checks)}
        for c in checks:
            if c.check.endswith("derived series"):
                answers["derived_series"] = tuple(c.computed)
        return checks, answers
    raise ValueError(f"unknown job kind {job.kind!r}")


def set_up(workload):
    """Parse every manifest the workload uses."""
    from cprojver import algebras, catalog

    for model, n in workload.models:
        catalog.builtin(model, n)
    for name in workload.algebras:
        algebras.builtin_algebra(name)
