"""The cproj front end: subcommands, reports, exit codes, determinism."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from cprojver.algebras import ALGEBRA_FILES, data_dir
from cprojver.cli import MODEL_NS, main
from cprojver.report import SCHEMA, Check


def run(args):
    return main(args)


class TestTable:
    def test_table_report(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["table", "--n-min", "2", "--n-max", "3", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == SCHEMA
        assert rep["pass"] is True
        assert {"check", "anchor", "expected", "computed", "pass", "provenance"} <= set(
            rep["checks"][0]
        )
        printed = capsys.readouterr().out
        assert "submax=8" in printed and "submax=18" in printed

    def test_range_validation(self, capsys):
        assert run(["table", "--n-min", "1", "--n-max", "3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_deterministic_checks(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["table", "--n-min", "2", "--n-max", "2", "--out", str(a)])
        run(["table", "--n-min", "2", "--n-max", "2", "--out", str(b)])
        ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ra["checks"] == rb["checks"]


class TestVerify:
    def test_verify_model(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--model", "type2", "--n", "2", "--fast", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        names = [c["check"] for c in rep["checks"]]
        assert any("symmetry dimension" in n for n in names)
        assert rep["pass"]

    def test_unknown_model(self, capsys):
        assert run(["verify", "--model", "nope", "--n", "2"]) == 2

    def test_n_defaults_to_manifest_minimum(self, capsys):
        assert run(["verify", "--model", "submax-metric", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "submax-metric[n=2]" in out
        assert "n=None" not in out

    def test_model_all_rejects_n(self, capsys):
        assert run(["verify", "--model", "all", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --n does not apply to --model all")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_model_all_command_has_no_n(self, tmp_path, monkeypatch):
        ran = []

        def one(name, n, fast):
            ran.append((name, n))
            return [Check("stub", "stub", 0, 0, True)]

        monkeypatch.setattr("cprojver.cli._verify_one", one)
        out = tmp_path / "v.json"
        assert run(["verify", "--model", "all", "--fast", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["command"] == "verify --model all"
        assert ran == [(m, n) for m, ns in MODEL_NS.items() for n in ns]

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys):
        assert run(["verify", "--model", "flat", "--fast", "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert err == f"error: --jobs takes a positive worker count, got {jobs}\n"
        assert out == ""

    @pytest.mark.parametrize("jobs,workers", [("100000", sum(map(len, MODEL_NS.values()))), ("3", 3)])
    def test_pool_is_capped_at_the_job_count(self, jobs, workers, monkeypatch):
        # a recording stand-in for the pool: no process is started
        import concurrent.futures

        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *columns):
                return map(fn, *columns)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(
            "cprojver.cli._verify_one", lambda *job: [Check("stub", "stub", 0, 0, True)]
        )
        assert run(["verify", "--model", "all", "--fast", "--jobs", jobs]) == 0
        assert sizes == [workers]

    def test_manifest_path_runs_the_catalog_battery(self, tmp_path):
        from cprojver.catalog import DATA_DIR

        path = os.path.join(DATA_DIR, "submax_metric.model")
        by_path, by_name = tmp_path / "p.json", tmp_path / "n.json"
        assert run(["verify", "--model", path, "--fast", "--out", str(by_path)]) == 0
        assert run(["verify", "--model", "submax-metric", "--fast",
                    "--out", str(by_name)]) == 0

        def records(out, prefix=""):
            return [
                (c["check"].removeprefix(prefix), c["expected"], c["computed"], c["pass"])
                for c in json.loads(out.read_text())["checks"]
            ]

        got = records(by_path)
        assert got == records(by_name, "submax-metric[n=2] ")
        assert len(got) == 33 and all(rec[3] for rec in got)

    def test_manifest_without_mobility_gets_no_dimension_chain(self, tmp_path, capsys):
        # the chain check reads the computed degree of mobility and the family
        # count compares with the expected one; a manifest that expects none
        # is not solved for it and gets neither check
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "submax_metric.model"), encoding="ascii") as fh:
            text = fh.read()
        assert text.count("mobility = ") == 1
        path, out = tmp_path / "nomob.model", tmp_path / "r.json"
        path.write_text(text.replace("mobility = ", "# mobility = "))
        assert run(["verify", "--model", str(path), "--fast", "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        checks = {c["check"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
        assert "dimension chain cp <= homothety + mobility - 1" not in checks
        assert "degree of mobility" not in checks
        assert "family parameter count equals the degree of mobility" not in checks
        assert all(checks.values())

    def test_parallel_forms_of_another_model_get_no_submax_records(self, tmp_path, capsys):
        # the span and family records are built from the submax directions;
        # a flat metric's parallel forms span every direction, so a flat
        # manifest that expects them gets only the dimension and the
        # re-verification, and passes
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "flat.model"), encoding="ascii") as fh:
            text = fh.read()
        path, out = tmp_path / "flatpf.model", tmp_path / "r.json"
        path.write_text(text.replace("degree = 2", "parallel_forms_dim = 2*n @published\ndegree = 2"))
        assert run(["verify", "--model", str(path), "--fast", "--out", str(out)]) == 0
        assert "error" not in capsys.readouterr().err
        checks = {c["check"]: c["pass"] for c in json.loads(out.read_text())["checks"]}
        assert checks["parallel 1-form space dimension"]
        assert checks["parallel forms re-verified exactly"]
        assert "parallel forms span the first and the k>=3 complex directions" not in checks
        assert not any(name.startswith("family ") for name in checks)
        assert all(checks.values())

    @pytest.mark.parametrize("fname,old,new,n,reason", [
        # J comes from one of [frame] and [J], Gamma from one of [frame],
        # [gamma] and [metric]; type3-n2 with extra [J] and [gamma] sections
        # once passed 19/19, both sections unread
        ("type3_n2.model", "[expected]", "[J]\nstandard\n\n[expected]", "2",
         "[frame] and [J] both declare the complex structure; keep one (line 29, column 1)"),
        ("type3_n2.model", "[expected]", "[gamma]\nG(z2; z1, z1) = 1\n\n[expected]", "2",
         "[frame] and [gamma] both declare the connection; keep one (line 29, column 1)"),
        ("type3_n2.model", "[expected]", "[metric]\nrest = one from 1\n\n[expected]", "2",
         "[frame] and [metric] both declare the connection; keep one (line 29, column 1)"),
        # a [gamma] beside the [metric] once fed the tensor and symmetry
        # batteries while the metric battery read the Levi-Civita connection:
        # 2*zb1 passed 31/31 at n=3
        ("submax_metric.model", "[metric]", "[gamma]\nG(z2; z1, z1) = 2*zb1\n\n[metric]", "3",
         "[gamma] and [metric] both declare the connection; keep one (line 16, column 1)"),
        # no source once meant Gamma = 0, and so did an empty [metric]: flat
        # then passed 14 records and never checked its mobility
        ("type2.model", "[gamma]\nG(z2; z1, z1) = zb1\n", "", "2",
         "manifest declares no connection (line 1, column 1)"),
        ("flat.model", "rest = one from 1", "", "2",
         "[metric] gives no component (line 12, column 1)"),
    ])
    def test_second_or_missing_source_is_a_manifest_error(
        self, fname, old, new, n, reason, tmp_path, capsys
    ):
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, fname), encoding="ascii") as fh:
            text = fh.read()
        assert old in text
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace(old, new, 1))
        assert run(["verify", "--model", str(bad), "--n", n, "--fast"]) == 2
        assert capsys.readouterr().err == f"manifest error: {reason}\n"

    def test_perturbed_metric_fails_the_type2_connection_record(self, tmp_path, capsys):
        # g(1,1) = g(2,2) = 2|z1|^2 is still Kahler, but its Levi-Civita
        # connection has G(z2; z1, z1) = 2*zb1, not the type2 connection's zb1
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "submax_metric.model"), encoding="ascii") as fh:
            text = fh.read()
        assert text.count("= x1^2+x2^2") == 2
        bad, out = tmp_path / "bad.model", tmp_path / "r.json"
        bad.write_text(text.replace("= x1^2+x2^2", "= 2*x1^2+2*x2^2"))
        assert run(["verify", "--model", str(bad), "--fast", "--out", str(out)]) == 1
        checks = json.loads(out.read_text())["checks"]
        assert [c["check"] for c in checks if not c["pass"]] == [
            "Levi-Civita equals the type2 connection"
        ]
        assert len(checks) == 33

    def test_malformed_manifest_path_is_a_manifest_error(self, tmp_path, capsys):
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type3_n2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace("bounds = x 0 2 y 0 2 q 0 3", "bounds = x1 0"))
        for path in (bad, tmp_path):
            assert run(["verify", "--model", str(path), "--fast"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert run(["verify", "--model", str(bad)]) == 2
        assert "(line 39, column 1)" in capsys.readouterr().err

    def test_misspelled_section_is_a_manifest_error(self, tmp_path, capsys):
        # [expectd] once dropped every expectation: 4/4 checks and exit 0
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace("[expected]", "[expectd]"))
        assert run(["verify", "--model", str(bad), "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert "(line 16, column 1)" in err

    @pytest.mark.parametrize("new", [
        "zdenoms = 1\ndenom Q2 = x1^2+x2^2",  # the Q1 that zdenoms declares, again
        "zdenoms = 1\ndenom Q1 = 1+x1^2",  # the name of that Q1
    ])
    def test_clashing_denominator_is_a_manifest_error(self, new, tmp_path, capsys):
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type1_n2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace("zdenoms = 1", new))
        assert run(["verify", "--model", str(bad), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert "(line 10, column 1)" in err

    @pytest.mark.parametrize("old,new,line,reason", [
        # a second laurent line was once read as q alone
        ("laurent = s", "laurent = s\nlaurent = q", 10, "laurent is given twice"),
        ("vars = x y s q", "vars = x y s q\nvars = x y s w", 9, "vars is given twice"),
        ("laurent = s", "laurent = s\nsubst p = s^2", 10, "unknown chart key 'subst p'"),
        ("laurent = s", "laurent = s w", 9, "laurent names w, not a coordinate"),
    ])
    def test_repeated_or_stray_chart_key_is_a_manifest_error(
        self, old, new, line, reason, tmp_path, capsys
    ):
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type3_n2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace(old, new, 1))
        assert run(["verify", "--model", str(bad), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert f"{reason} (line {line}, column 1)" in err

    @pytest.mark.parametrize("old,new,args,reason", [
        ("[expected]", "[expectd]", ["type2"], "unknown section [expectd] (line 16, column 1)"),
        ("[expected]", "[expectd]", ["all", "--jobs", "2"],
         "unknown section [expectd] (line 16, column 1)"),
        ("[J]\nstandard\n", "", ["type2"],
         "manifest declares no complex structure (line 1, column 1)"),
    ])
    def test_malformed_builtin_manifest_is_a_manifest_error(
        self, old, new, args, reason, tmp_path, capsys, monkeypatch
    ):
        # a built-in model read from CPROJ_CATALOG once printed "error:",
        # unlike the same file passed as --model PATH; with --jobs 2 the
        # error and its line come back from a worker process
        shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
        path = tmp_path / "type2.model"
        path.write_text(path.read_text().replace(old, new, 1))
        monkeypatch.setenv("CPROJ_CATALOG", str(tmp_path))
        assert run(["verify", "--fast", "--model", *args]) == 2
        assert capsys.readouterr().err == f"manifest error: {reason}\n"

    def test_completion_by_a_jframe_that_is_not_complex_is_a_manifest_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # J e_2 = +e_1 squares to +1 there; the completion once loaded, and
        # verify failed 9 of 18 checks, "J.J = -Id" among them, with exit 1
        shutil.copytree(data_dir(), tmp_path, dirs_exist_ok=True)
        path = tmp_path / "type3_n2.model"
        path.write_text(path.read_text().replace("Jframe = 2 -1 4 -3", "Jframe = 2 1 4 3", 1))
        monkeypatch.setenv("CPROJ_CATALOG", str(tmp_path))
        assert run(["verify", "--fast", "--model", "type3-n2"]) == 2
        assert capsys.readouterr().err == (
            "manifest error: complete = J needs a Jframe with J^2 = -1 (line 27, column 1)\n"
        )

    def test_lineless_n_error_stays_a_usage_error(self, capsys):
        assert run(["verify", "--model", "type2", "--n", "1", "--fast"]) == 2
        assert capsys.readouterr().err == "error: model 'type2' requires n in [2, inf], got 1\n"

    @pytest.mark.parametrize("old,new,line,col", [
        ("= zb1", "= zb1^(99999999999)", 14, 5),
        ("= zb1", "= 2^99999999999", 14, 3),
        ("= 2*(n^2-n+2)", "= 2*n^(-99999999999)", 17, 5),
    ])
    def test_exponent_past_the_packed_range_is_a_manifest_error(
        self, old, new, line, col, tmp_path, capsys
    ):
        # the power is refused when it is read: it is never computed
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace(old, new, 1))
        assert run(["verify", "--model", str(bad), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert f"packed range (-8192, 8192) (line {line}, column {col})" in err

    def test_integer_literal_past_the_digit_limit_is_a_manifest_error(self, tmp_path, capsys):
        # int() refuses a literal of more than 4300 digits by default; the
        # parser names the literal's line and column instead
        from cprojver.catalog import DATA_DIR

        with open(os.path.join(DATA_DIR, "type2.model"), encoding="ascii") as fh:
            text = fh.read()
        bad = tmp_path / "bad.model"
        bad.write_text(text.replace("= zb1", "= zb1 + " + "9" * 5000 + "*zb1", 1))
        assert run(["verify", "--model", str(bad), "--fast"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert "integer literal of 5000 digits is too long (line 14, column 7)" in err

    def test_type3_n2_reports_out_of_scope_component(self, tmp_path):
        out = tmp_path / "v.json"
        code = run(
            ["verify", "--model", "type3-n2", "--n", "2", "--fast", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        notes = [c for c in rep["checks"] if "not verifiable" in str(c["expected"])]
        assert notes


class TestProlong:
    def test_prolong(self, tmp_path):
        out = tmp_path / "p.json"
        assert run(["prolong", "--type", "II", "--n", "4", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["pass"]


class TestAlgebra:
    def test_builtin_with_deformation(self, tmp_path):
        out = tmp_path / "a.json"
        code = run(
            ["algebra", "--name", "s", "--deform", "II", "--n", "3", "--out", str(out)]
        )
        assert code == 0

    def test_symbolic_family(self):
        assert run(["algebra", "--name", "lambda-family", "--lam", "symbolic"]) == 0

    def test_manifest_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.alg"
        bad.write_text("cproj-algebra v1\nbasis = x y\nbracket [x,q] = y\n")
        assert run(["algebra", "--manifest", str(bad)]) == 2
        assert "manifest error" in capsys.readouterr().err

    @pytest.mark.parametrize("fname,name,old,new,line", [
        # a grading without f once ended in "internal error: KeyError: 'f'"
        ("alg_sl2.alg", "sl2", "grade f = -1\n", "", 4),
        # e4 in both parts once loaded odd: "s: Z2 grading" FAIL and exit 1
        ("alg_cproj8.alg", "s", "zminus = e5", "zminus = e4 e5", 7),
    ])
    def test_bad_grading_is_a_manifest_error(
        self, fname, name, old, new, line, tmp_path, capsys, monkeypatch
    ):
        with open(os.path.join(data_dir(), fname), encoding="ascii") as fh:
            text = fh.read()
        (tmp_path / fname).write_text(text.replace(old, new, 1))
        monkeypatch.setenv("CPROJ_CATALOG", str(tmp_path))
        assert run(["algebra", "--name", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("manifest error: ") and err.count("\n") == 1
        assert f"(line {line}, column 1)" in err

    def test_no_action(self, capsys):
        assert run(["algebra"]) == 2

    def test_unknown_name_is_a_usage_error(self, capsys):
        assert run(["algebra", "--name", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown algebra 'nosuch'; available: [")
        assert "internal error" not in err

    def test_lam_with_zero_denominator_is_a_usage_error(self, capsys):
        assert run(["algebra", "--name", "lambda-family", "--lam", "1/0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --lam takes a rational number or 'symbolic', got '1/0'\n"

    def test_lam_on_algebra_without_parameters_is_a_usage_error(self, capsys):
        assert run(["algebra", "--name", "s", "--lam", "3"]) == 2
        err = capsys.readouterr().err
        assert err == "error: algebra 's' has no parameters; lam=3 does not apply\n"

    def test_lam_with_manifest_is_a_usage_error(self, capsys):
        path = os.path.join(data_dir(), ALGEBRA_FILES["lambda-family"])
        assert run(["algebra", "--manifest", path, "--lam", "2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --lam applies only to --name with a parameterized algebra\n"

    def test_name_with_manifest_is_a_usage_error(self, capsys):
        path = os.path.join(data_dir(), ALGEBRA_FILES["lambda-family"])
        for extra in ([], ["--lam", "2"]):
            args = ["algebra", "--name", "lambda-family", "--manifest", path, *extra]
            assert run(args) == 2
            out, err = capsys.readouterr()
            assert err == "error: --name and --manifest each name the algebra; pass one\n"
            assert out == ""

    def test_n_without_deform_is_a_usage_error(self, capsys):
        assert run(["algebra", "--name", "s", "--n", "5"]) == 2
        out, err = capsys.readouterr()
        assert err == "error: --n applies only to --deform\n"
        assert out == ""

    def test_deform_defaults_to_n_2(self, monkeypatch):
        ran = []

        def battery(kind, n):
            ran.append((kind, n))
            return [Check("stub", "stub", 0, 0, True)]

        monkeypatch.setattr("cprojver.verify.deformation_battery", battery)
        assert run(["algebra", "--deform", "II"]) == 0
        assert run(["algebra", "--deform", "II", "--n", "4"]) == 0
        assert ran == [("II", 2), ("II", 4)]

    def test_deformation_out_of_range_n(self, capsys):
        assert run(["algebra", "--name", "s", "--deform", "I", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: type I deformation needs n >= 3")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestBadPaths:
    """A path the run cannot use is a one-line usage error naming it, and a
    bad --out is caught before any check runs."""

    @pytest.fixture
    def no_battery(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr("cprojver.verify.table_battery", boom)

    def test_out_in_missing_directory(self, tmp_path, capsys, no_battery):
        out = tmp_path / "missing" / "x.json"
        assert run(["table", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --out directory does not exist: {out.parent}\n"

    def test_out_naming_a_directory(self, tmp_path, capsys, no_battery):
        assert run(["table", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: --out names a directory: {tmp_path}\n"

    def test_out_in_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["table", "--n-min", "2", "--n-max", "2", "--out", "r.json"]) == 0
        assert json.loads((tmp_path / "r.json").read_text())["pass"]

    @pytest.mark.parametrize("args", [
        ["verify", "--model", "type2", "--n", "2"],
        ["metric", "--model", "submax-metric", "--n", "2"],
    ])
    def test_missing_catalog_directory(self, args, tmp_path, capsys, monkeypatch):
        catalog = tmp_path / "nonexistent"
        monkeypatch.setenv("CPROJ_CATALOG", str(catalog))
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot access {catalog}{os.sep}")
        assert err.count("\n") == 1 and "internal error" not in err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr("cprojver.verify.table_battery", boom)
    assert run(["table", "--n-min", "2", "--n-max", "2"]) == 2
    assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"


class TestMetricCmd:
    def test_metric_battery(self, tmp_path):
        out = tmp_path / "m.json"
        code = run(
            ["metric", "--model", "submax-metric", "--n", "2", "--fast", "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["pass"]

    def test_sign_pattern_flag(self):
        assert run(["metric", "--model", "submax-metric", "--n", "3", "--signs", "-", "--fast"]) == 0

    def test_unknown_model_is_a_usage_error(self, capsys):
        assert run(["metric", "--model", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown model 'nosuch'; available: (")
        assert "internal error" not in err

    def test_model_without_metric_is_a_usage_error(self, capsys):
        assert run(["metric", "--model", "type2"]) == 2
        err = capsys.readouterr().err
        assert err == "error: model 'type2' declares no [metric] section\n"

    @pytest.mark.parametrize("model,n,signs", [("flat", "3", "+++"), ("cp1xc", "2", "-+-")])
    def test_sign_pattern_nothing_reads_is_a_manifest_error(self, capsys, model, n, signs):
        # only a 'rest = eps' metric clause reads --signs; elsewhere it
        # would be silently ignored
        assert run(["metric", "--model", model, "--n", n, f"--signs={signs}", "--fast"]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: model {model!r} has no 'rest = eps' metric clause to read a sign pattern\n"
        )

    def test_sign_pattern_rejects_other_characters(self, capsys):
        assert run(["metric", "--model", "submax-metric", "--n", "2", "--signs", "+x"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --signs takes only '+' and '-', got '+x'\n"


def test_reports_byte_stable_across_hash_seeds(tmp_path):
    # dict and set iteration order changes with the hash seed; the reports
    # must not, apart from the timestamp and the timing field
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    commands = {
        "verify": ["verify", "--model", "type2", "--n", "2", "--fast"],
        "metric": ["metric", "--model", "submax-metric", "--n", "2", "--fast"],
        # stabilized, on a chart with a declared denominator
        "cp1xc": ["verify", "--model", "cp1xc", "--n", "2"],
        "algebra": ["algebra", "--name", "s", "--deform", "III", "--n", "3"],
        "prolong": ["prolong", "--type", "I", "--n", "3"],
    }
    for name, args in commands.items():
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / f"{name}-{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-m", "cprojver.cli", *args, "--out", str(out)],
                env=env, capture_output=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            lines = out.read_bytes().splitlines(keepends=True)
            reports.append(b"".join(
                line for line in lines
                if not line.lstrip().startswith((b'"generated_at"', b'"wall_time_s"'))
            ))
        assert reports[0] == reports[1], name
