"""Model manifests: loading, validation, errors, overrides, symmetry lists."""

import os
import re
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cprojver.algebras import parse_algebra_manifest
from cprojver.catalog import (
    DATA_DIR,
    MODEL_NAMES,
    PROVENANCE,
    ManifestError,
    builtin,
    expected_symmetries,
    model_ansatz,
    parse_model_manifest,
)
from cprojver.parse import ParseError
from cprojver import tensorcalc as tc


class TestLoading:
    @pytest.mark.parametrize(
        "name,n",
        [
            ("flat", 2),
            ("type1", 3),
            ("type1-n2", 2),
            ("type2", 2),
            ("type2", 4),
            ("type3", 3),
            ("type3-n2", 2),
            ("nonminimal", 2),
            ("submax-metric", 3),
            ("cp1xc", 2),
        ],
    )
    def test_builtin_loads(self, name, n):
        spec = builtin(name, n)
        assert spec.n == n
        assert tc.is_almost_complex(spec.J)
        assert spec.gamma is not None
        assert tc.covariant_derivative_J(spec.gamma, spec.J).is_zero()

    def test_incompatible_n(self):
        with pytest.raises(ManifestError):
            builtin("type3", 2)
        with pytest.raises(ManifestError):
            builtin("type1", 2)
        with pytest.raises(ManifestError):
            builtin("type3-n2", 3)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("mystery")

    def test_deterministic_load(self):
        a = builtin("type2", 3)
        b = builtin("type2", 3)
        assert a.gamma == b.gamma and a.J == b.J
        assert a.expected == b.expected

    def test_denominator_with_rational_coefficients(self):
        # cp1xc over D1 = (1 + x1^2 + x2^2)/2, stored as int numerators over
        # q = 2, with g = 1/(4 D1^2): the same metric, so the same checks
        from cprojver.cli import _battery

        text = _data("cp1xc.model")
        halved = text.replace("denom D1 = 1+x1^2+x2^2", "denom D1 = 1/2+1/2*x1^2+1/2*x2^2")
        halved = halved.replace("= 1/D1^2", "= 1/(4*D1^2)")
        assert halved.count("1/(4*D1^2)") == 2
        checks = [_battery(parse_model_manifest(t, n=2), fast=True) for t in (text, halved)]
        assert [c.as_record() for c in checks[0]] == [c.as_record() for c in checks[1]]
        assert all(c.passed for c in checks[1])

    def test_every_model_has_tagged_expectations(self):
        for name in MODEL_NAMES:
            spec = builtin(name)
            assert spec.expected, name
            for key, (val, prov) in spec.expected.items():
                assert prov in PROVENANCE, (name, key)

    def test_signs_validation(self):
        spec = builtin("submax-metric", 3, signs=(-1,))
        # the sign of the k = 3 pair g(5,5) = g(6,6)
        assert spec.metric.get(4, 4) == spec.metric.get(5, 5) == spec.chart.const(-1)
        with pytest.raises(ManifestError):
            builtin("submax-metric", 3, signs=(1, 1))


class TestManifestErrors:
    def test_missing_header(self):
        with pytest.raises(ManifestError):
            parse_model_manifest("bogus")

    def test_untagged_expectation_refused(self):
        text = (
            "cproj-model v1\nname = t\nnrange = 2\n"
            "[J]\nstandard\n[gamma]\nzero\n[expected]\nsymmetry_dim = 16\n"
        )
        with pytest.raises(ManifestError) as ei:
            parse_model_manifest(text, n=2)
        assert "provenance" in str(ei.value)

    def test_error_carries_line_number(self):
        text = (
            "cproj-model v1\nname = t\nnrange = 2\n"
            "[J]\nstandard\n[gamma]\nG(z9; z1, z1) = 1\n"
        )
        with pytest.raises(ManifestError) as ei:
            parse_model_manifest(text, n=2)
        assert "line 7" in str(ei.value)

    def test_bad_nrange(self):
        with pytest.raises(ManifestError):
            parse_model_manifest("cproj-model v1\nnrange = x\n")


def _data(fname):
    with open(os.path.join(DATA_DIR, fname), encoding="ascii") as fh:
        return fh.read()


def _parse_any(fname, text):
    """Parse a model manifest at its original smallest n, or an algebra."""
    if fname.endswith(".alg"):
        return parse_algebra_manifest(text)
    n = int(re.search(r"^nrange\s*=\s*(\d+)", _data(fname), re.M).group(1))
    return parse_model_manifest(text, n=n)


class TestMalformedValues:
    @pytest.mark.parametrize(
        "fname,old,new,line",
        [
            ("type2.model", "degree = 2", "degree = x", 24),
            ("type1_n2.model", "zdenoms = 1", "zdenoms = a", 9),
            ("type1_n2.model", "zdenoms = 1", "zdenoms = 3", 9),
            ("type3_n2.model", "vars = x y s q", "vars = x y s", 8),
            ("type3_n2.model", "vars = x y s q", "vars = x y s s q", 8),
            ("type3_n2.model", "Jframe = 2 -1 4 -3", "Jframe = 2 x", 17),
            ("type3_n2.model", "Jframe = 2 -1 4 -3", "Jframe = 2 -1 5 -3", 17),
            ("type3_n2.model", "laurent_window = -4 4", "laurent_window = 1", 40),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = x1 0", 39),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = x 0 b", 39),
            ("alg_sl2.alg", "grade e = 1", "grade e = x", 5),
            # a grading covers the basis and names only basis labels, and
            # zplus and zminus share no label
            ("alg_sl2.alg", "grade f = -1\n", "", 4),
            ("alg_sl2.alg", "grade f = -1", "grade f = -1\ngrade q = 5", 7),
            ("alg_cproj8.alg", "zminus = e5", "zminus = e4 e5", 7),
            ("alg_cproj8.alg", "zplus = e1 e2 e3 e4\nzminus = e5 e6 e7 e8",
             "zminus = e4 e5 e6 e7 e8\nzplus = e1 e2 e3 e4", 7),
            # a Z2 grading covers the basis and names only basis labels,
            # refused at a zplus or zminus line, not at line 1
            ("alg_cproj8.alg", "zplus = e1 e2 e3 e4", "zplus = e1 e2 e3", 6),
            ("alg_cproj8.alg", "zminus = e5 e6 e7 e8", "zminus = e5 e6 e7 e8 e9", 7),
            # an nrange holds some n >= 2
            ("type2.model", "nrange = 2 ..", "nrange = 3 .. 2", 5),
            ("type2.model", "nrange = 2 ..", "nrange = 1", 5),
            # expected values are integers; n/3 at n=2 used to truncate to 0
            ("cp1xc.model", "symmetry_dim = 2*n^2-2*n+3", "symmetry_dim = n/3", 20),
            # a constant declared denominator is no denominator
            ("cp1xc.model", "denom D1 = 1+x1^2+x2^2", "denom D1 = 2", 9),
            # a declared denominator that is a rational multiple of another
            # would give one value two canonical forms, so == would fail
            ("type1_n2.model", "zdenoms = 1", "zdenoms = 1\ndenom Q2 = x1^2+x2^2", 10),
            ("cp1xc.model", "denom D1 = 1+x1^2+x2^2", "denom D1 = 1+x1^2+x2^2\ndenom D2 = -2-2*x1^2-2*x2^2", 10),
            # zdenoms names its denominators Q1, Q2, ...; a denom line may
            # not take one of those names, before or after the zdenoms line,
            # and zdenoms lists each index once, on one line
            ("type1_n2.model", "zdenoms = 1", "zdenoms = 1\ndenom Q1 = 1+x1^2", 10),
            ("type1_n2.model", "zdenoms = 1", "denom Q1 = x1^2+x2^2\nzdenoms = 1", 9),
            ("type1_n2.model", "zdenoms = 1", "zdenoms = 1 1", 9),
            ("type1_n2.model", "zdenoms = 1", "zdenoms = 1\nzdenoms = 2", 10),
            # vars and laurent are one line each, and laurent names each
            # coordinate of vars at most once, before or after vars
            ("type3_n2.model", "vars = x y s q", "vars = x y s q\nvars = x y s w", 9),
            ("type3_n2.model", "laurent = s", "laurent = s\nlaurent = q", 10),
            ("type3_n2.model", "laurent = s", "laurent = s w", 9),
            ("type3_n2.model", "laurent = s", "laurent = s s", 9),
            ("type3_n2.model", "vars = x y s q\nlaurent = s", "laurent = w\nvars = x y s q", 8),
            # a manifest is read in the one chart it is checked in: there is
            # no load-time substitution
            ("type3_n2.model", "laurent = s", "laurent = s\nsubst p = s^2", 10),
            # an entry given twice is refused at its second line, never
            # overwritten by it: per section, and for the metric against its
            # mirror and against the diagonal that the rest clause sets
            ("cp1xc.model", "denom D1 = 1+x1^2+x2^2", "denom D1 = 1+x1^2+x2^2\ndenom D1 = 1+x1^2", 10),
            ("cp1xc.model", "standard", "standard\nJ(zb1; z1) = z2\nJ(zb1; z1) = 0", 14),
            ("cp1xc.model", "g(1,1) = 1/D1^2", "g(1,1) = 1/D1^2\ng(1,1) = 5", 16),
            ("cp1xc.model", "g(1,1) = 1/D1^2", "g(1,1) = 1/D1^2\ng(1,3) = 0\ng(3,1) = 0", 17),
            ("cp1xc.model", "g(2,2) = 1/D1^2", "g(2,2) = 1/D1^2\ng(3,3) = 1", 18),
            ("cp1xc.model", "minimal = true @published", "minimal = true @published\nminimal = false @published", 24),
            ("cp1xc.model", "degree = 3", "degree = 3\ndegree = 4", 26),
            ("type1.model", "R(z1; z2, z2, z3) = 1", "R(z1; z2, z2, z3) = 1\nR(z1; z2, z2, z3) = 2", 29),
            ("type1.model", "R(z1; z2, z2, z3) = 1", "R(z1; z2, z2, z3) = 1\nR(z1; z2, z3, z2) = -1", 29),
            ("type1.model", "R(z1; z2, z2, z3) = 1", "R(z1; z2, z2, z3) = 1\nR(z1; z2, z3, z3) = 1", 29),
            # keys compared after parsing: the same w(j,i; k) spelled apart
            ("type3_n2.model", "w(2,1; 4) = 1/2*s^-2", "w(2,1; 4) = 1/2*s^-2\nw(2, 1;4) = 0", 19),
            # a manifest without J is refused at line 1, as one without
            # nrange is, so the CLI reports it as a manifest error
            ("type2.model", "[J]\nstandard\n", "", 1),
            # a misspelled section once dropped its statements unread
            ("type2.model", "[expected]", "[expectd]", 16),
            ("type2.model", "[gamma]", "[gama]", 13),
            ("alg_sl2.alg", "grade h = 0", "[grade]\ngrade h = 0", 4),
            # complete takes J alone (j once skipped the J-completion), and
            # scalar_ok is true or false (yes once read as false)
            ("type3_n2.model", "complete = J", "complete = j", 27),
            # nabla e_{Ji} = J nabla e_i needs J^2 = -1: with J e_2 = +e_1 the
            # completion once loaded and failed 9 of 18 checks
            ("type3_n2.model", "Jframe = 2 -1 4 -3", "Jframe = 2 1 4 3", 27),
            ("type1.model", "scalar_ok = true", "scalar_ok = yes", 29),
            # an [expected] key is one of EXPECTED_KEYS and its value is of
            # the key's kind; each of these once loaded, and was ignored or
            # misread: a misspelled key skipped the symmetry battery
            ("type2.model", "symmetry_dim", "symetry_dim", 17),
            ("type2.model", "2*(n^2-n+2) @published", "2*(n^2-n+2) @nonsense", 17),
            ("cp1xc.model", "minimal = true", "minimal = 3", 23),
            ("type2.model", "symmetry_dim = 2*(n^2-n+2)", "symmetry_dim = (1,1)", 17),
            ("type2.model", "symmetry_dim = 2*(n^2-n+2)", "symmetry_dim = true", 17),
            ("type2.model", "curvature_type = (1,1)", "curvature_type = (0,2)", 19),
            ("type2.model", "degree = 2", "degree = 2\nmobility = 1 @published", 25),
            # an ansatz setting takes no tag, and each of its ranges holds an
            # exponent, below 0 only on a laurent coordinate of the chart
            ("type2.model", "degree = 2", "degree = -1", 24),
            ("type2.model", "degree = 2", "degree = 2 @published", 24),
            ("type2.model", "degree = 2", "degree = 2\nlaurent_window = -1 1", 25),
            ("type3_n2.model", "laurent_window = -4 4", "laurent_window = 4 -4", 40),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = x 2 0", 39),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = zz 0 2", 39),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = x -1 2", 39),
            ("type3_n2.model", "bounds = x 0 2 y 0 2 q 0 3", "bounds = x 0 2 x 0 3", 39),
            # J comes from one of [frame] and [J], Gamma from one of [frame],
            # [gamma] and [metric]; a second source once lost by precedence,
            # and no source, or an empty [metric], once meant Gamma = 0
            ("type3_n2.model", "[expected]", "[J]\nstandard\n\n[expected]", 29),
            ("type3_n2.model", "[expected]", "[gamma]\nzero\n\n[expected]", 29),
            ("type3_n2.model", "[expected]", "[metric]\nrest = one from 1\n\n[expected]", 29),
            ("cp1xc.model", "[metric]", "[gamma]\nzero\n\n[metric]", 17),
            ("type2.model", "G(z2; z1, z1) = zb1", "zero\nG(z2; z1, z1) = zb1", 13),
            ("type2.model", "[gamma]\nG(z2; z1, z1) = zb1\n", "", 1),
            ("flat.model", "rest = one from 1", "", 12),
            # an empty [J] or [frame] is refused at its header
            ("type2.model", "standard", "", 10),
            ("type3_n2.model", "[frame]", "[frame]\n[expected_torsion]", 12),
        ],
    )
    def test_parse_error_with_line(self, fname, old, new, line):
        text = _data(fname)
        assert old in text
        err = ManifestError if fname.endswith(".model") else ParseError
        with pytest.raises(err) as ei:
            _parse_any(fname, text.replace(old, new))
        assert ei.value.line == line

    @pytest.mark.parametrize(
        "old,new,line",
        [
            ("g(2,2) = 1/D1^2", "g(2,2) = I/D1^2", 16),
            ("symmetry_dim = 2*n^2-2*n+3", "symmetry_dim = n+I", 20),
        ],
    )
    def test_imaginary_unit_only_in_complex_notation(self, old, new, line):
        # I is a variable of the complex-notation table, not of a real chart
        # or of the expected-value polynomials in n
        text = _data("cp1xc.model")
        assert old in text
        with pytest.raises(ParseError, match="unknown name 'I'") as ei:
            parse_model_manifest(text.replace(old, new), n=2)
        assert ei.value.line == line


def test_expected_keys_are_the_keys_the_batteries_read():
    # EXPECTED_KEYS, the one table the [expected] reader accepts, holds the
    # keys that the batteries and the model ansatz read, and no other key
    import inspect

    from cprojver import catalog, cli, metric, verify

    source = "".join(map(inspect.getsource, (cli, metric, verify, catalog.model_ansatz)))
    read = set(re.findall(r'(?:expect|degrees\.get)\("(\w+)"', source))
    # the three tensor flags are read in one loop over their keys
    read |= set(re.findall(r'\("(\w+_zero)", ', inspect.getsource(verify.model_battery)))
    assert read == set(catalog.EXPECTED_KEYS)


_MANIFESTS = sorted(f for f in os.listdir(DATA_DIR) if f.endswith((".model", ".alg")))


@pytest.mark.parametrize("fname", _MANIFESTS)
def test_every_statement_given_twice_is_refused_at_the_copy(fname):
    # each statement, section header and bare flag of a built-in manifest,
    # copied right after itself, is refused at the copy's line
    lines = _data(fname).splitlines()
    copied = 0
    for i, line in enumerate(lines[1:], start=1):
        if not line.strip() or line.startswith("#"):
            continue
        with pytest.raises(ParseError) as ei:
            _parse_any(fname, "\n".join(lines[: i + 1] + lines[i:]))
        assert ei.value.line == i + 2, line
        copied += 1
    assert copied > 3
_VALUES = ("x", "a", "2 x", "1", "-1", "0", "x1 0", "", "1 2 3", "(", "1/0", "z9",
           "zb0", "=", "[", "@", "s^-", "D(x1)", "2 .. 1", "true", "9 9 9")


@st.composite
def _mutated_manifest(draw):
    fname = draw(st.sampled_from(_MANIFESTS))
    lines = _data(fname).splitlines()
    i = draw(st.integers(1, len(lines) - 1))  # the header line stays
    line = lines[i]
    kind = draw(st.sampled_from(("value", "drop", "repeat", "truncate", "char")))
    if kind == "value":
        lines[i] = f"{line.split('=', 1)[0]}= {draw(st.sampled_from(_VALUES))}"
    elif kind == "drop":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, line)
    elif kind == "truncate":
        lines[i] = line[: draw(st.integers(0, len(line)))]
    else:
        pos = draw(st.integers(0, len(line)))
        ch = draw(st.sampled_from("x0129-=;,()[]^*/+ @#"))
        lines[i] = line[:pos] + ch + line[pos + 1:]
    return fname, "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(_mutated_manifest())
def test_mutated_manifest_parses_or_raises_parse_error(case):
    fname, text = case
    try:
        _parse_any(fname, text)
    except ParseError:
        pass


class TestCatalogOverride:
    def test_env_var_override(self, tmp_path, monkeypatch):
        from cprojver.algebras import ALGEBRA_FILES, builtin_algebra
        from cprojver.catalog import DATA_DIR, _FILES

        for f in set(_FILES.values()) | set(ALGEBRA_FILES.values()):
            shutil.copy(os.path.join(DATA_DIR, f), tmp_path / f)
        # tamper with the copies to prove the override directory is used by
        # both the model and the algebra manifests
        target = tmp_path / _FILES["type2"]
        text = target.read_text().replace("name = type2", "name = type2-override")
        target.write_text(text)
        target = tmp_path / ALGEBRA_FILES["sl2"]
        text = target.read_text()
        assert "name = sl2" in text
        target.write_text(text.replace("name = sl2", "name = sl2-override"))
        monkeypatch.setenv("CPROJ_CATALOG", str(tmp_path))
        spec = builtin("type2", 2)
        assert spec.name == "type2-override"
        assert builtin_algebra("sl2").name == "sl2-override"
        monkeypatch.delenv("CPROJ_CATALOG")
        assert builtin("type2", 2).name == "type2"
        assert builtin_algebra("sl2").name == "sl2"


class TestSymmetryLists:
    @pytest.mark.parametrize(
        "name,n",
        [
            ("flat", 2),
            ("flat", 3),
            ("type1", 3),
            ("type1", 4),
            ("type1-n2", 2),
            ("type2", 2),
            ("type2", 4),
            ("type3", 3),
            ("type3", 4),
            ("type3-n2", 2),
            ("nonminimal", 2),
            ("nonminimal", 3),
        ],
    )
    def test_counts_match_expected_dimension(self, name, n):
        spec = builtin(name, n)
        fields = expected_symmetries(spec)
        assert len(fields) == spec.expect("symmetry_dim")

    def test_fields_linearly_independent(self):
        from cprojver.linalg import SpanSolver
        from cprojver.symsolve import field_coordinates

        fields = expected_symmetries(builtin("type3", 3))
        span = SpanSolver()
        for _, f in fields:
            assert span.insert(field_coordinates(f))

    def test_no_list_for_metric_models(self):
        with pytest.raises(KeyError):
            expected_symmetries(builtin("cp1xc", 2))


class TestAnsatz:
    def test_model_ansatz_respects_recorded_degrees(self):
        spec = builtin("type3-n2", 2)
        ans = model_ansatz(spec)
        smin = min(e[spec.chart.table.index("s")] for e in ans.monomials)
        qmax = max(e[spec.chart.table.index("q")] for e in ans.monomials)
        assert smin == -4 and qmax == 3

    def test_total_degree_default(self):
        spec = builtin("type2", 2)
        ans = model_ansatz(spec)
        assert max(sum(e) for e in ans.monomials) == 2
