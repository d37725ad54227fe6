import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def unpack(key, nv):
    """The exponent vector of a packed monomial key of `nv` variables: the
    inverse of symsolve._pack, slot 0 the most significant."""
    from cprojver.symsolve import _BIAS, _SLOT

    mask = (1 << _SLOT) - 1
    exps = []
    for _ in range(nv):
        exps.append((key & mask) - _BIAS)
        key >>= _SLOT
    return tuple(reversed(exps))


@pytest.fixture
def canonical():
    """canonical(table, outputs): column-closure outputs [(tag, parts)] as
    [(tag, {comp: LaurentPoly})], each part's shift added to its packed term
    keys and the keys unpacked, each part reduced against its declared
    denominators and the parts of one component summed, so that they compare
    by exact value with the generic route's tensor components."""
    from cprojver.poly import LaurentPoly, accumulate

    def convert(table, outputs):
        nv = table.nvars()
        out = []
        for tag, parts in outputs:
            comps = {}
            for shift, symbol in parts:
                for comp, den, items in symbol:
                    terms = {unpack(k + shift, nv): c for k, c in items}
                    accumulate(comps, comp, LaurentPoly(table, terms, den))
            out.append((tag, comps))
        return out

    return convert
