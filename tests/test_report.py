"""Report records: the pass rule of `report.Check`, and pins of the reports."""

import ast
import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

import cprojver
from cprojver.algebras import ALGEBRA_FILES, data_dir
from cprojver.cli import main
from cprojver.report import Check

# the record kinds whose verdict is not expected == computed: a printed
# tensor may match up to a constant ratio, a signature is of a kind, and an
# algebra with an integer grading passes on its filtration alone
OWN_VERDICT = (
    "matches printed value",
    "signature excludes the Riemannian case",
    "integer grading / filtration",
)

PINNED = {
    "verify-fast": ["verify", "--model", "all", "--fast"],
    "table": ["table", "--n-min", "2", "--n-max", "8"],
}
COMMANDS = {
    **PINNED,
    "verify": ["verify", "--model", "all"],
    "type3-n2": ["verify", "--model", "type3-n2"],
    **{f"prolong-{t}": ["prolong", "--type", t, "--n", "3"] for t in ("I", "II", "III", "IV")},
    **{f"algebra-{a}": ["algebra", "--name", a] for a in sorted(ALGEBRA_FILES)},
    "algebra-lam": ["algebra", "--name", "lambda-family", "--lam", "2"],
    **{f"deform-{t}": ["algebra", "--deform", t, "--n", "2"] for t in ("II", "III", "IV")},
    "manifest": ["algebra", "--manifest", os.path.join(data_dir(), ALGEBRA_FILES["sl2"])],
    "metric-3": ["metric", "--model", "submax-metric", "--n", "3"],
    "cp1xc": ["metric", "--model", "cp1xc", "--n", "2"],
}

# sha256 of the PINNED reports, in order, without their "generated_at" and
# "wall_time_s" lines.  Recorded at commit 7c8d7a6, before `Check` derived
# `pass` itself, with the same digest under PYTHONHASHSEED=0 and =1, by
#   cd tests && PYTHONPATH=../src python -c \
#     "import test_report as t; print(t.report_digest())"
REPORT_PIN = "1e070becfe950df8a0ee5f7d4a5302954ddf7b6fd94d4dff176c14ab51e83732"

# the reports whose checks include the stabilization re-solves
STABILIZED = ("verify", "type3-n2", "metric-3", "cp1xc")
# sha256 of the STABILIZED reports, as REPORT_PIN.  Recorded at commit
# 1f1b085, before the symmetry re-solves counted ncols - rank instead of
# building a basis, with the same digest under PYTHONHASHSEED=0 and =1, by
#   cd tests && PYTHONPATH=../src python -c \
#     "import test_report as t; print(t.report_digest(names=t.STABILIZED))"
STABILIZED_PIN = "dac90dfca3f7be4d0490ce81377e64bbd36ed299c38811a1ae4d3823eae08883"


def run_reports(names, outdir):
    """name -> the bytes of its report, without the timing lines; every
    command must exit 0."""
    reports = {}
    for name in names:
        path = os.path.join(outdir, f"{name}.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*COMMANDS[name], "--out", path]) == 0, name
        with open(path, "rb") as fh:
            reports[name] = b"".join(
                line for line in fh
                if not line.lstrip().startswith((b'"generated_at"', b'"wall_time_s"'))
            )
    return reports


def report_digest(reports=None, names=tuple(PINNED)):
    if reports is None:
        with tempfile.TemporaryDirectory() as outdir:
            reports = run_reports(names, outdir)
    return hashlib.sha256(b"".join(reports[name] for name in names)).hexdigest()


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return run_reports(COMMANDS, tmp_path_factory.mktemp("reports"))


def test_report_pin(reports):
    # the records, their order and their rendering are those of the reports
    # written before the verdict moved into `Check`
    assert report_digest(reports) == REPORT_PIN


def test_stabilized_report_pin(reports):
    # the stabilized records are those written while each re-solve still
    # read its enlarged kernel's basis
    assert report_digest(reports, STABILIZED) == STABILIZED_PIN


def test_pass_is_expected_equals_computed(reports):
    exempt = set()
    for name, text in reports.items():
        for rec in json.loads(text)["checks"]:
            kind = next((k for k in OWN_VERDICT if rec["check"].endswith(k)), None)
            if kind:
                exempt.add(kind)
            else:
                assert rec["pass"] == (rec["expected"] == rec["computed"]), (name, rec)
    assert exempt == set(OWN_VERDICT)


def test_check_derives_its_verdict():
    assert Check("c", "a", 3, 3).passed is True
    assert Check("c", "a", (1, 2), (1, 3)).passed is False
    assert Check("c", "a", "match", "ratio 2", True).passed is True
    assert Check("c", "a", "match", "equal", False).as_record()["pass"] is False


def test_only_the_three_kinds_give_their_own_verdict():
    src = os.path.dirname(cprojver.__file__)
    own = []
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py") or fname == "report.py":
            continue
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Check":
                if len(node.args) > 4 or any(k.arg == "passed" for k in node.keywords):
                    own.append(ast.unparse(node.args[0]))
    assert len(own) == len(OWN_VERDICT)
    assert all(any(kind in name for name in own) for kind in OWN_VERDICT), own
