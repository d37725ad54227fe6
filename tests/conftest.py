import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def emitted_half(comps, symmetric):
    """The components of a generic-route tensor that an operator emits: all
    of `comps`, or, when the equation is `symmetric` in its last two
    indices, those whose last two indices ascend, after asserting that every
    component equals its mirror, so that the cut drops only repeats."""
    if not symmetric:
        return comps
    for key, p in comps.items():
        assert comps.get((*key[:-2], key[-1], key[-2])) == p, key
    return {key: p for key, p in comps.items() if key[-2] <= key[-1]}


def without_direction(operator, a):
    """`operator` with every symbol of direction `a` (key[0] == a) dropped,
    so that the columns of that direction take no equation."""

    def apply(columns):
        symbols, uses = operator(columns)
        keys = [key for key in uses if key[0] != a]
        return {key: symbols[key] for key in keys}, {key: uses[key] for key in keys}

    return apply


@pytest.fixture
def canonical():
    """canonical(table, output, col, tags): the value of column `col` in an
    operator's output (symbols, uses), as [(tag, {comp: LaurentPoly})] for
    each tag in `tags`.  Every symbol that the column takes is scaled, its
    shift added to its monomial keys, each part reduced against its
    declared denominators and the parts of one component summed, so that the
    value compares by exact value with the generic route's tensor
    components."""
    from cprojver.poly import LaurentPoly, accumulate

    def convert(table, output, col, tags):
        symbols, uses = output
        comps = {tag: {} for tag in tags}
        for key, by_scale in uses.items():
            for scale, cols in by_scale.items():
                for shift in (shift for c, shift in cols if c == col):
                    for tag, comp, p in symbols[key]:
                        terms = {k + shift: c * scale for k, c in p.terms.items()}
                        accumulate(comps[tag], comp, LaurentPoly(table, terms, p.den, p.q))
        return [(tag, comps[tag]) for tag in tags]

    return convert
