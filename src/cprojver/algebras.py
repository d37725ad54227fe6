"""Built-in structure-constant algebras and their manifest format.

Manifest grammar (one statement per line, ``#`` comments)::

    cproj-algebra v1
    name = <identifier>
    basis = e1 e2 ...
    params = lam ...              # optional commuting parameters
    zplus = e1 e2                 # optional Z2 grading (+ part)
    zminus = e3 e4                #                     (- part)
    grade <label> = <int>         # optional integer grading, per label
    bracket [ei,ej] = <linear combination of basis labels>

Bracket right-hand sides use the polynomial grammar over parameters and basis
labels; every monomial must be linear in the basis labels.
"""

from __future__ import annotations

import os
import re

from .catalog import _unique, data_dir, statements
from .parse import ParseError, parse_poly
from .poly import LaurentPoly, VarTable, pack, unpack
from .structlie import StructAlgebra

_BRACKET = re.compile(r"bracket\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]")


def parse_algebra_manifest(text, name_hint="") -> StructAlgebra:
    name = name_hint
    labels = None
    params = []
    z2 = {}  # label -> (line, "zplus" or "zminus")
    grading = {}  # label -> (line, grade)
    raw_brackets = []
    for ln, key, val in statements(text, "cproj-algebra v1", {"": ()})[""]:
        m = _BRACKET.fullmatch(key)
        if m:
            raw_brackets.append((ln, m.group(1), m.group(2), val))
        elif key == "name":
            name = val
        elif key == "basis":
            labels, names_line = val.split(), ln
        elif key == "params":
            params, names_line = val.split(), ln
        elif key in ("zplus", "zminus"):
            for label in val.split():
                if z2.setdefault(label, (ln, key))[1] != key:
                    raise ParseError(f"{label} is in both zplus and zminus", ln, 1)
        elif key.startswith("grade "):
            if not re.fullmatch(r"[+-]?\d+", val):
                raise ParseError(f"grade must be an integer, got {val!r}", ln, 1)
            grading[key[len("grade "):]] = (ln, int(val))
        else:
            raise ParseError(f"unknown key {key!r}", ln, 1)
    if not labels:
        raise ParseError("manifest declares no basis", 1, 1)
    if len(set(params) | set(labels)) != len(params) + len(labels):
        raise ParseError("basis and params repeat a name", names_line, 1)
    table = VarTable(list(params) + list(labels))
    index = {l: i for i, l in enumerate(labels)}
    _check_cover(grading, labels, "grading", "without a grade")
    _check_cover(z2, labels, "Z2 grading", "in neither zplus nor zminus")
    ptable = VarTable(params) if params else None
    entries = []
    for ln, li, lj, rhs in raw_brackets:
        if li not in index or lj not in index:
            raise ParseError(f"unknown basis label in [{li},{lj}]", ln, 1)
        if li == lj:
            raise ParseError(f"[{li},{lj}] vanishes by antisymmetry", ln, 1)
        vec = _split_linear(parse_poly(rhs, table, line=ln), table, labels, params, ptable, ln)
        key = (index[li], index[lj])
        entries.append((ln, frozenset(key), (key, vec)))
    bracket = dict(_unique(entries).values())
    return StructAlgebra(
        labels,
        bracket,
        params=ptable,
        grading={l: g for l, (_, g) in grading.items()},
        z2={l: 1 if part == "zplus" else -1 for l, (_, part) in z2.items()},
        name=name,
    )


def _check_cover(lines, labels, what, missing):
    """Refuse a label of `lines` ({label: (line, value)}) that is not in
    `labels` at its line, and, when `lines` names any label, a label of
    `labels` that it leaves out at its first line."""
    for label, (ln, _) in lines.items():
        if label not in labels:
            raise ParseError(f"{what} names {label}, not a basis label", ln, 1)
    left = [l for l in labels if l not in lines]
    if lines and left:
        first = min(ln for ln, _ in lines.values())
        raise ParseError(f"{what} leaves {' '.join(left)} {missing}", first, 1)


def _split_linear(poly, table, labels, params, ptable, ln):
    """Split a polynomial over params+labels into {label index: coeff}."""
    npar = len(params)
    vec = {}
    for key, c in poly.rational_terms().items():
        exps = unpack(key, table.nvars())
        lab_part = exps[npar:]
        ones = [i for i, e in enumerate(lab_part) if e]
        if len(ones) != 1 or lab_part[ones[0]] != 1:
            raise ParseError(
                "bracket value must be linear in the basis labels", ln, 1
            )
        k = ones[0]
        if ptable is not None:
            coeff = LaurentPoly(ptable, {pack(exps[:npar]): c})
            prev = vec.get(k)
            vec[k] = coeff if prev is None else prev + coeff
        else:
            prev = vec.get(k)
            vec[k] = c if prev is None else prev + c
    return vec


def builtin_algebra(name) -> StructAlgebra:
    """Load a built-in algebra manifest by catalog name."""
    fname = ALGEBRA_FILES.get(name)
    if fname is None:
        raise KeyError(
            f"unknown algebra {name!r}; available: {sorted(ALGEBRA_FILES)}"
        )
    path = os.path.join(data_dir(), fname)
    with open(path, "r", encoding="ascii") as fh:
        return parse_algebra_manifest(fh.read(), name_hint=name)


ALGEBRA_FILES = {
    "s": "alg_cproj8.alg",
    "s-prime": "alg_isom6.alg",
    "s-double-prime": "alg_isom8.alg",
    "lambda-family": "alg_lambda_family.alg",
    "a3-family": "alg_lambda_family.alg",
    "sl2": "alg_sl2.alg",
}
