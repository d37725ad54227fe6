"""Built-in model manifests and their text format.

Manifest grammar (``#`` comments; sections in brackets)::

    cproj-model v1
    name = type2
    nrange = 2 ..          # or "= 3" exactly, or "= 2 .. 6"

    [chart]
    vars = auto            # x1 .. x_{2n}, or an explicit list
    laurent = s            # optional
    denom D1 = 1+x1^2+x2^2 # optional, may repeat
    zdenoms = 1            # declare |z_a|^2 denominators for listed a

    [J]                    # J; or give J in [frame] instead
    standard               # J d_{z a} = i d_{z a}; extra lines add terms
    J(zb3; z1) = z2

    [gamma]                # Gamma as complex Christoffels, conjugate half implied;
    G(z2; z1, z1) = zb1    # "zero" (or no entry) is the zero connection

    [frame]                # J and Gamma from a moving frame, with no [J],
    e1 = D(x) ...          # [gamma] or [metric] section
    w(2,1; 4) = 1/2*s^-2   # theta^4-coefficient of omega^2_1
    Jframe = 2 -1 4 -3     # J e_1 = e_2, J e_2 = -e_1, ...
    complete = J           # derive nabla e_{Ji} from nabla e_i (Jframe squares to -1)

    [metric]               # real lower-triangular components; Gamma is its
    g(1,1) = x1^2+x2^2     # Levi-Civita connection, so no [gamma] or [frame]
    rest = eps from 3      # remaining diagonal pairs carry the sign pattern

    [expected]             # the keys of EXPECTED_KEYS; counts may be polynomials
    symmetry_dim = 2*(n^2-n+2) @published   # in n; tags @published or @recomputed
    degree = 2             # ansatz settings carry no tag

    [expected_curvature]   # golden complex tensors ((k,l) antisymmetrized)
    R(z2; z1, z1, zb1) = 1
    scalar_ok = true
    [expected_torsion]
    [expected_nijenhuis]
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .parse import ParseError, parse_field, parse_poly
from .poly import LaurentPoly, PolyError, VarTable, accumulate
from .tensorcalc import (
    Chart,
    Tensor,
    complex_table,
    complex_tensor_to_real,
    contract,
    frame_to_coordinates,
    standard_J,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "catalog_data")

MODEL_NAMES = (
    "flat",
    "type1",
    "type1-n2",
    "type2",
    "type3",
    "type3-n2",
    "nonminimal",
    "submax-metric",
    "cp1xc",
)

_FILES = {name: name.replace("-", "_") + ".model" for name in MODEL_NAMES}


def data_dir():
    return os.environ.get("CPROJ_CATALOG", DATA_DIR)


@dataclass
class ModelSpec:
    """A model read from its manifest.  J comes from [J] or [frame]; Gamma from
    [gamma], [frame] or [metric], where it is the metric's Levi-Civita
    connection, computed at load with `metric_inverse`, so every battery reads
    that one connection.  Without a [metric], both metric fields are None."""

    name: str
    n: int
    chart: Chart
    J: Tensor
    gamma: Tensor
    metric: Tensor = None
    metric_inverse: Tensor = None
    expected: dict = field(default_factory=dict)  # key -> (value, provenance)
    golden: dict = field(default_factory=dict)  # kind -> (Tensor, scalar_ok)
    degrees: dict = field(default_factory=dict)  # the ansatz settings

    def expect(self, key):
        return self.expected.get(key, (None,))[0]


class ManifestError(ParseError):
    pass


class Section(list):
    """The (line, head, value) statements of one manifest section, and the
    `line` of its [header] (1 for the part before any section)."""

    def __init__(self, line):
        super().__init__()
        self.line = line


# The [expected] keys that verify, metric and model_ansatz read, with their
# kinds of value: a count (a polynomial in n, a whole number at the model's n;
# a "metric count" needs a [metric]), a flag (true or false), a curvature type
# of CURVATURE_TYPES, which verify.model_battery tells apart, or an ansatz
# setting.  Every value but an ansatz setting carries a tag of PROVENANCE.
EXPECTED_KEYS = {
    "symmetry_dim": "count", "affine_dim": "count",
    "mobility": "metric count", "parallel_forms_dim": "metric count",
    "curvature_zero": "flag", "torsion_zero": "flag", "nijenhuis_zero": "flag",
    "minimal": "flag", "kappa4_zero": "flag",
    "curvature_type": "curvature type",
    "degree": "ansatz", "laurent_window": "ansatz", "bounds": "ansatz",
}
CURVATURE_TYPES = ("(1,1)", "(2,0)")
PROVENANCE = ("published", "recomputed")

# each section and the bare flags it takes; "" is the part before any section
_SECTIONS = {"": (), "chart": (), "J": ("standard",), "gamma": ("zero",), "frame": (),
             "metric": (), "expected": (), "expected_curvature": (),
             "expected_torsion": (), "expected_nijenhuis": ()}

_IDX = re.compile(r"(\w+)\s*\(([^;)]*);([^;)]*)\)")  # T(upper; lower)


def statements(text, header, sections):
    """The statements of a manifest whose first line is `header`, as
    {section: Section of (line, head, value)}.

    `sections` maps each section name to the bare flags it takes; "" holds
    the statements before the first ``[section]`` line.  ``#`` starts a
    comment, a ``head = value`` line splits at its first ``=`` (each run of
    spaces in the head reads as one), and a bare flag has value None.  A
    missing header, an unknown or repeated section and a head given twice
    in its section are refused at their line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != header:
        raise ManifestError(f"expected header {header!r}", 1, 1)
    section = ""
    out = {"": Section(1)}
    heads = set()
    for ln, raw in enumerate(lines[1:], start=2):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if s.startswith("[") and s.endswith("]"):
            section = s[1:-1]
            if not section or section not in sections:
                raise ManifestError(f"unknown section [{section}]", ln, 1)
            if section in out:
                raise ManifestError(f"section [{section}] is given twice", ln, 1)
            out[section] = Section(ln)
            continue
        if "=" in s:
            head, val = s.split("=", 1)
            head, val = " ".join(head.split()), val.strip()
        elif s in sections[section]:
            head, val = s, None
        else:
            raise ManifestError(f"expected 'key = value' in {s!r}", ln, 1)
        if (section, head) in heads:
            raise ManifestError(f"{head} is given twice", ln, 1)
        heads.add((section, head))
        out[section].append((ln, head, val))
    return out


def _unique(entries):
    """{key: value} of (line, key, value) entries whose keys are compared
    after parsing; a mirror takes its original's key.  A key given twice is
    refused at its second line."""
    out = {}
    for ln, key, val in entries:
        if key in out:
            raise ManifestError("entry is given twice (or as its mirror)", ln, 1)
        out[key] = val
    return out


def _ints(val, ln, count=None):
    """The integers listed in `val` (exactly `count` of them when given)."""
    toks = val.split()
    if count not in (None, len(toks)) or not all(re.fullmatch(r"[+-]?\d+", t) for t in toks):
        raise ManifestError(f"expected {count or 'some'} integers, got {val!r}", ln, 1)
    return [int(t) for t in toks]


def _parse_cindex(tok, n, ln):
    tok = tok.strip()
    m = re.fullmatch(r"(z|zb)(\d+)", tok)
    if not m:
        raise ManifestError(f"bad complex index {tok!r}", ln, 1)
    a = int(m.group(2)) - 1
    if not (0 <= a < n):
        raise ManifestError(f"complex index {tok!r} out of range for n", ln, 1)
    return a + (n if m.group(1) == "zb" else 0)


def _tensor_entry(head, val, n, ztab, ln, valence):
    m = _IDX.fullmatch(head)
    if not m:
        raise ManifestError(f"bad tensor entry {head!r}; expected T(upper; lower)", ln, 1)
    up, lo = ([_parse_cindex(t, n, ln) for t in p.split(",") if t.strip()] for p in m.group(2, 3))
    if (len(up), len(lo)) != valence:
        raise ManifestError(
            f"{m.group(1)} entries take {valence[0]} upper and {valence[1]} lower indices", ln, 1
        )
    return tuple(up + lo), parse_poly(val, ztab, line=ln)


def _components(entries, n, ztab, valence):
    """{complex index tuple: poly} of a section's tensor entries, skipping
    its bare flag."""
    return _unique(
        (ln, *_tensor_entry(head, val, n, ztab, ln, valence))
        for ln, head, val in entries
        if val is not None
    )


def parse_model_manifest(text, n=None, signs=None, name_hint=""):
    body = statements(text, "cproj-model v1", _SECTIONS)
    name = name_hint
    nmin = nmax = None
    for ln, head, val in body[""]:
        if head == "name":
            name = val
        elif head == "nrange":
            m = re.fullmatch(r"(\d+)(?:\s*\.\.\s*(\d+)?)?", val)
            if not m:
                raise ManifestError(f"bad nrange {val!r}", ln, 1)
            nmin = int(m.group(1))
            nmax = int(m.group(2)) if m.group(2) else (
                nmin if ".." not in val else None
            )
            if nmin < 2 or (nmax is not None and nmax < nmin):
                raise ManifestError(f"nrange {val!r} is empty or starts below 2", ln, 1)
        else:
            raise ManifestError(f"unknown key {head!r}", ln, 1)
    if nmin is None:
        raise ManifestError("manifest declares no nrange", 1, 1)
    if n is None:
        n = nmin
    if n < nmin or (nmax is not None and n > nmax):
        raise ManifestError(
            f"model {name!r} requires n in [{nmin}, {nmax if nmax else 'inf'}], got {n}"
        )
    return _build_model(name, n, signs, body)


def _build_model(name, n, signs, body):
    # chart ------------------------------------------------------------
    laurent = ()
    denoms = {}
    varnames = None
    zden = []
    for ln, head, val in body.get("chart", []):
        if head == "vars":
            varnames = None if val == "auto" else val.split()
            if varnames is not None and {len(varnames), len(set(varnames))} != {2 * n}:
                raise ManifestError(
                    f"chart needs 2n = {2 * n} distinct coordinates, got {val!r}", ln, 1
                )
        elif head == "laurent":
            laurent = tuple(val.split())
            if len(set(laurent)) != len(laurent):
                raise ManifestError(f"laurent repeats a coordinate in {val!r}", ln, 1)
            laurent_line = ln
        elif head.startswith("denom "):
            denoms[head[len("denom "):]] = (val, ln)
        elif head == "zdenoms":
            zden = _ints(val, ln)
            if not all(1 <= a <= n for a in zden):
                raise ManifestError(f"zdenoms index out of range for n in {val!r}", ln, 1)
            if len(set(zden)) != len(zden):
                raise ManifestError(f"zdenoms repeats an index in {val!r}", ln, 1)
        else:
            raise ManifestError(f"unknown chart key {head!r}", ln, 1)
    if varnames is None:
        varnames = [f"x{i+1}" for i in range(2 * n)]
    stray = sorted(set(laurent) - set(varnames))
    if stray:
        raise ManifestError(f"laurent names {' '.join(stray)}, not a coordinate", laurent_line, 1)
    den_dict = {}
    plain = VarTable(varnames, laurent=laurent)
    for a in zden:
        i, j = 2 * (a - 1), 2 * (a - 1) + 1
        e1 = [0] * len(varnames)
        e2 = [0] * len(varnames)
        e1[i], e2[j] = 2, 2
        den_dict[f"Q{a}"] = {tuple(e1): 1, tuple(e2): 1}
    for dname, (val, ln) in denoms.items():
        if dname in den_dict:
            raise ManifestError(f"denominator {dname} is the |z|^2 that zdenoms declares", ln, 1)
        p = parse_poly(val, plain, line=ln)
        if any(p.den) or p.is_constant() or any(
            e and lau for exps, _ in p.monomials() for e, lau in zip(exps, plain.laurent)
        ):
            raise ManifestError("denominators are nonconstant polynomials in the "
                                "non-laurent coordinates", ln, 1)
        den_dict[dname] = dict(p.monomials())
        try:
            VarTable(varnames, laurent=laurent, denominators=den_dict)
        except PolyError as exc:
            raise ManifestError(str(exc), ln, 1) from None
    chart = Chart(varnames, laurent=laurent, denominators=den_dict)
    ztab = complex_table(n, laurent_z=tuple(a - 1 for a in zden))

    # J and Gamma, each from one section -----------------------------------------
    jsrc = _source(body, ("frame", "J"), "complex structure")
    _source(body, ("frame", "gamma", "metric"), "connection")  # refuses two or none
    if jsrc == "frame":
        gamma, J = _build_frame(body["frame"], chart, n)
    else:
        jsec = body["J"]
        J = standard_J(chart) if any(val is None for _, _, val in jsec) else None
        jcomps = _components(jsec, n, ztab, (1, 1))
        if jcomps:
            extra = complex_tensor_to_real(chart, (1, 1), jcomps)
            J = extra if J is None else J + extra
        if J is None:
            raise ManifestError("[J] declares no complex structure", jsec.line, 1)
    if "gamma" in body:
        gsec = body["gamma"]
        gcomps = _components(gsec, n, ztab, (1, 2))
        if gcomps and len(gcomps) < len(gsec):
            raise ManifestError("[gamma] gives both zero and entries", gsec.line, 1)
        gamma = complex_tensor_to_real(chart, (1, 2), gcomps)

    # metric, and then Gamma is its Levi-Civita connection ------------------------
    metric = ginv = None
    used_signs = tuple(signs) if signs else ()
    rest = None
    if "metric" in body:
        msec = body["metric"]
        if not msec:
            raise ManifestError("[metric] gives no component", msec.line, 1)
        entries = []
        for ln, head, val in msec:
            if head == "rest":
                m = re.fullmatch(r"(eps|one)\s+from\s+(\d+)", val)
                if not m:
                    raise ManifestError(f"bad rest clause {val!r}", ln, 1)
                rest = (m.group(1), int(m.group(2)), ln)
                continue
            m = re.fullmatch(r"g\(\s*(\d+)\s*,\s*(\d+)\s*\)", head)
            if not m:
                raise ManifestError(f"bad metric entry {head!r}", ln, 1)
            a, b = int(m.group(1)) - 1, int(m.group(2)) - 1
            p = parse_poly(val, chart.table, line=ln)
            entries.append((ln, frozenset((a, b)), ((a, b), p)))
        mcomps = {}
        for (a, b), p in _unique(entries).values():
            mcomps[(a, b)] = mcomps[(b, a)] = p
        if rest:
            kind, start, rest_ln = rest
            if kind == "eps":
                if not used_signs:
                    used_signs = tuple(1 for _ in range(start, n + 1))
                if len(used_signs) != n + 1 - start:
                    raise ManifestError(
                        f"sign pattern needs {n + 1 - start} entries, got {len(used_signs)}"
                    )
            for k in range(start, n + 1):
                eps = used_signs[k - start] if kind == "eps" else 1
                for r in (2 * k - 2, 2 * k - 1):
                    if (r, r) in mcomps:
                        raise ManifestError(f"rest sets g({r + 1},{r + 1}) again", rest_ln, 1)
                    mcomps[(r, r)] = chart.const(eps)
        metric = Tensor(chart, (0, 2), mcomps)
        from .metric import levi_civita, metric_inverse

        try:
            ginv = metric_inverse(metric)
            gamma = levi_civita(metric, ginv)
        except PolyError as exc:
            raise ManifestError(f"metric: {exc}", msec[0][0], 1) from None
    if used_signs and (rest is None or rest[0] != "eps"):
        raise ManifestError(
            f"model {name!r} has no 'rest = eps' metric clause to read a sign pattern"
        )

    # expected ------------------------------------------------------------------------
    ntab = VarTable(["n"])
    expected = {}
    degrees = {}
    for ln, head, val in body.get("expected", []):
        kind = EXPECTED_KEYS.get(head)
        if kind is None:
            raise ManifestError(f"unknown expected key {head!r}", ln, 1)
        val, tagged, prov = (t.strip() for t in val.partition("@"))
        if kind == "ansatz":
            if tagged:
                raise ManifestError(f"{head} is an ansatz setting; it takes no tag", ln, 1)
            degrees[head] = _ansatz_setting(head, val, chart.table, ln)
            continue
        if prov not in PROVENANCE:
            raise ManifestError(f"expected value {head!r} carries no provenance tag "
                                f"@published or @recomputed, got {tagged + prov!r}", ln, 1)
        if kind == "flag":
            if val not in ("true", "false"):
                raise ManifestError(f"{head} is true or false, got {val!r}", ln, 1)
            parsed = val == "true"
        elif kind == "curvature type":
            if val not in CURVATURE_TYPES:
                raise ManifestError(f"{head} is (1,1) or (2,0), got {val!r}", ln, 1)
            parsed = val
        else:
            if kind == "metric count" and metric is None:
                raise ManifestError(f"{head} is read only on a model with a [metric]", ln, 1)
            try:
                v = parse_poly(val, ntab, line=ln).evaluate({"n": n})
            except ParseError as exc:
                raise ManifestError(f"{head} is a count in n: {exc.msg}", ln, exc.col) from None
            if v.denominator != 1 or v < 0:
                raise ManifestError(f"{head} is {v} at n={n}, not a count", ln, 1)
            parsed = int(v)
        expected[head] = (parsed, prov)

    golden = {}
    for kind, valence, (a, b) in (
        ("expected_curvature", (1, 3), (2, 3)),
        ("expected_torsion", (1, 2), (1, 2)),
        ("expected_nijenhuis", (1, 2), (1, 2)),
    ):
        sec = body.get(kind, [])
        if not sec:
            continue
        entries = []
        scalar_ok = False
        for ln, head, val in sec:
            if head == "scalar_ok":
                if val not in ("true", "false"):
                    raise ManifestError(f"scalar_ok is true or false, got {val!r}", ln, 1)
                scalar_ok = val == "true"
                continue
            idx, poly = _tensor_entry(head, val, n, ztab, ln, valence)
            if idx[a] == idx[b] and poly:
                raise ManifestError(
                    f"{kind} entry is nonzero with equal form slots; a 2-form vanishes there",
                    ln, 1,
                )
            swapped = list(idx)
            swapped[a], swapped[b] = idx[b], idx[a]
            swapped = tuple(swapped)
            entries.append((ln, min(idx, swapped), (idx, swapped, poly)))
        comps = {}
        for idx, swapped, poly in _unique(entries).values():
            comps[idx], comps[swapped] = poly, -poly
        golden[kind] = (
            complex_tensor_to_real(chart, valence, comps),
            scalar_ok,
        )

    return ModelSpec(
        name=name,
        n=n,
        chart=chart,
        J=J,
        gamma=gamma,
        metric=metric,
        metric_inverse=ginv,
        expected=expected,
        golden=golden,
        degrees=degrees,
    )


def _ansatz_setting(head, val, table, ln):
    """The value of an ansatz setting: a `degree` d >= 0, a `laurent_window`
    (lo, hi) for the laurent coordinates, or `bounds` {coordinate: (lo, hi)};
    each range holds an exponent, and only a laurent coordinate's goes below 0."""
    if head == "degree":
        (deg,) = _ints(val, ln, 1)
        if deg < 0:
            raise ManifestError(f"degree is at least 0, got {deg}", ln, 1)
        return deg
    if head == "laurent_window":
        if not any(table.laurent):
            raise ManifestError("laurent_window needs a laurent coordinate", ln, 1)
        return _exponent_range(val, True, ln)
    toks = val.split()
    if not toks or len(toks) % 3:
        raise ManifestError(f"bounds takes 'var lo hi' triples, got {val!r}", ln, 1)
    bounds = {}
    for var, lo, hi in zip(toks[0::3], toks[1::3], toks[2::3]):
        if var not in table.names:
            raise ManifestError(f"bounds names {var}, not a coordinate", ln, 1)
        if var in bounds:
            raise ManifestError(f"bounds gives {var} twice", ln, 1)
        bounds[var] = _exponent_range(f"{lo} {hi}", table.laurent[table.index(var)], ln)
    return bounds


def _exponent_range(val, laurent, ln):
    lo, hi = _ints(val, ln, 2)
    if lo > hi:
        raise ManifestError(f"exponent range {val!r} is empty", ln, 1)
    if lo < 0 and not laurent:
        raise ManifestError(f"exponent range {val!r} goes below 0 off the laurent coordinates",
                            ln, 1)
    return lo, hi


def _source(body, sections, what):
    """The one section of `sections` in `body` that declares `what`.  Two are
    refused at the later one's header line, none at line 1."""
    given = sorted((body[sec].line, sec) for sec in sections if sec in body)
    if not given:
        raise ManifestError(f"manifest declares no {what}", 1, 1)
    if len(given) > 1:
        (_, first), (ln, second) = given[:2]
        raise ManifestError(f"[{first}] and [{second}] both declare the {what}; keep one", ln, 1)
    return given[0][1]


def _build_frame(frame_lines, chart, n):
    d = chart.dim
    cols, omega = [], []
    jframe_spec = None
    complete = None  # the line of `complete = J`
    for ln, head, val in frame_lines:
        if re.fullmatch(r"e\d+", head):
            i = int(head[1:]) - 1
            if not 0 <= i < d:
                raise ManifestError(f"frame index {head!r} out of range", ln, 1)
            f = parse_field(val, chart.table, line=ln)
            cols.append((ln, i, {chart.table.index(k): v for k, v in f.items()}))
        elif head.startswith("w("):
            m = re.fullmatch(r"w\(\s*(\d+)\s*,\s*(\d+)\s*;\s*(\d+)\s*\)", head)
            if not m:
                raise ManifestError(f"bad connection form entry {head!r}", ln, 1)
            key = tuple(int(t) - 1 for t in m.groups())
            if not all(0 <= t < d for t in key):
                raise ManifestError(f"frame index in {head!r} out of range", ln, 1)
            omega.append((ln, key, parse_poly(val, chart.table, line=ln)))
        elif head == "Jframe":
            jframe_spec = _ints(val, ln)
            if sorted(map(abs, jframe_spec)) != list(range(1, d + 1)):
                raise ManifestError(f"Jframe must permute 1..{d} up to sign", ln, 1)
        elif head == "complete":
            if val != "J":
                raise ManifestError(f"complete takes J, got {val!r}", ln, 1)
            complete = ln
        else:
            raise ManifestError(f"unknown frame key {head!r}", ln, 1)
    cols, omega = _unique(cols), _unique(omega)
    if len(cols) != d or jframe_spec is None:
        raise ManifestError(
            "frame section must define every e_i and Jframe", frame_lines.line, 1
        )
    jf = {(abs(t) - 1, i): chart.const(1 if t > 0 else -1) for i, t in enumerate(jframe_spec)}
    if complete is not None:
        # nabla e_{Ji} = J nabla e_i for each J e_i = +e_m, which needs J^2 = -1
        if any(jframe_spec[abs(t) - 1] != (-(i + 1) if t > 0 else i + 1)
               for i, t in enumerate(jframe_spec)):
            raise ManifestError("complete = J needs a Jframe with J^2 = -1", complete, 1)
        dst = {i: t - 1 for i, t in enumerate(jframe_spec) if t > 0}
        sources = {(j, dst[i], k): w for (j, i, k), w in omega.items() if i in dst}
        for key, p in contract("mj,jik->mik", jf, sources).items():
            accumulate(omega, key, p)
    try:
        return frame_to_coordinates(chart, cols, omega, jf)
    except PolyError as exc:
        raise ManifestError(f"frame: {exc}", frame_lines.line, 1) from None


def builtin(name, n=None, signs=None) -> ModelSpec:
    if name not in _FILES:
        raise KeyError(f"unknown model {name!r}; available: {sorted(_FILES)}")
    with open(os.path.join(data_dir(), _FILES[name]), "r", encoding="ascii") as fh:
        return parse_model_manifest(fh.read(), n=n, signs=signs, name_hint=name)


def model_ansatz(spec: ModelSpec):
    """The model's recorded acceptance ansatz space."""
    from .symsolve import AnsatzSpace

    deg = spec.degrees.get("degree", 2)
    lw = spec.degrees.get("laurent_window")
    extra_bounds = spec.degrees.get("bounds")
    if lw is None and extra_bounds is None:
        return AnsatzSpace(spec.chart, total_degree=deg)
    bounds = {}
    t = spec.chart.table
    for name, lau in zip(t.names, t.laurent):
        if extra_bounds and name in extra_bounds:
            bounds[name] = extra_bounds[name]
        elif lau and lw is not None:
            bounds[name] = lw
        else:
            bounds[name] = (0, deg)
    return AnsatzSpace(spec.chart, bounds=bounds)


# -- printed symmetry generators -------------------------------------------------


def expected_symmetries(spec):
    """The published generator list of a catalog model, as real vector fields
    on its chart.

    Complex-valued generators contribute a (real part, imaginary part) pair.
    Returns a list of (label, field dict direction-index -> LaurentPoly).
    """
    name, n, chart = spec.name, spec.n, spec.chart
    ztab = complex_table(n)

    def C(label, text):
        out = []
        f = parse_field(text, ztab)
        comps = {_parse_cindex(k, n, 0): v for k, v in f.items()}
        for tag, c in (("re", 1), ("im", LaurentPoly.var(ztab, "I"))):
            # the real field v + conj(v) of the complex field c v
            scaled = {(a,): p * c for a, p in comps.items()}
            real = complex_tensor_to_real(chart, (1, 0), scaled)
            out.append((f"{label}.{tag}", {r: p for (r,), p in real.comps.items()}))
        return out

    def R(label, text):
        f = parse_field(text, chart.table)
        return [(label, {chart.table.index(k): v for k, v in f.items()})]

    fields = []
    if name == "flat":
        for a in range(1, n + 1):
            fields += C(f"t{a}", f"D(z{a})")
            for b in range(1, n + 1):
                fields += C(f"l{a}{b}", f"z{a}*D(z{b})")
            fields += C(f"q{a}", f"z{a}*(" + "+".join(
                f"z{c}*D(z{c})" for c in range(1, n + 1)) + ")")
    elif name == "type1":
        for a in range(1, n + 1):
            if a != 2:
                fields += C(f"t{a}", f"D(z{a})")
        for i in range(2, n + 1):
            for j in range(1, n + 1):
                if j not in (2, 3):
                    fields += C(f"l{i}{j}", f"z{i}*D(z{j})")
        fields += C("e1", "2*z1*D(z1)+z2*D(z2)")
        fields += C("e2", "z1*D(z1)+z3*D(z3)")
        fields += C("c1", "z2*z3*D(z1)-D(z2)")
        fields += C("c2", "z2^3*D(z1)-3*z2*D(z3)")
    elif name == "type1-n2":
        fields += C("t2", "D(z2)")
        fields += C("e", "z1*D(z1)+z2*D(z2)")
        fields += C("c", "z1*z2*D(z1)+1/2*z2^2*D(z2)")
    elif name == "type2":
        for a in range(2, n + 1):
            fields += C(f"t{a}", f"D(z{a})")
        for i in range(1, n + 1):
            for j in range(2, n + 1):
                if i != 2:
                    fields += C(f"l{i}{j}", f"z{i}*D(z{j})")
        fields += C("e", "z1*D(z1)+2*z2*D(z2)+zb2*D(zb2)")
        fields += C("x", "D(z1)-1/2*zb1^2*D(zb2)")
    elif name == "type3":
        for a in range(1, n + 1):
            if a != 2:
                fields += C(f"t{a}", f"D(z{a})")
        for i in range(1, n + 1):
            for j in range(3, n + 1):
                if i != 3:
                    fields += C(f"l{i}{j}", f"z{i}*D(z{j})")
        fields += C("e1", "z1*D(z1)+zb3*D(zb3)")
        fields += C("e2", "z2*D(z2)+zb3*D(zb3)")
        fields += C("c1", "D(z2)-1/2*I*z1*(D(z3)+D(zb3))")
        fields += C("c2", "z1*D(z2)-1/4*I*z1^2*D(zb3)")
        fields += C("c3", "z2*D(z1)-1/4*I*z2^2*D(zb3)")
    elif name == "type3-n2":
        fields += R("v1", "x*D(x)+y*D(y)")
        fields += R("v2", "s^(-3)*D(y)")
        fields += R("v3", "1/2*s*D(s)+q*D(q)")
        fields += R("v4", "D(q)")
        fields += R("v5", "s^2*y*D(x)-s^2*x*D(y)-q*s*D(s)+(s^4-q^2)*D(q)")
        fields += R("v6", "(s^4+q^2)*s^(-3)*(s^2*D(x)-q*D(y))")
        fields += R("v7", "(s^4+q^2)*1/2*s^(-3)*D(y)+q*s^(-3)*(q*D(y)-s^2*D(x))")
        fields += R("v8", "s^(-3)*(q*D(y)-1/3*s^2*D(x))")
    elif name == "nonminimal":
        for a in range(1, n + 1):
            fields += C(f"t{a}", f"D(z{a})")
        for i in range(1, n + 1):
            for j in range(2, n + 1):
                if i != 2:
                    fields += C(f"l{i}{j}", f"z{i}*D(z{j})")
        fields += C("e", "z1*D(z1)+z2*D(z2)+zb2*D(zb2)")
    else:
        raise KeyError(f"no published symmetry list for {name!r}")
    return fields
