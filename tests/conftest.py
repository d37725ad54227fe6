import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture
def canonical():
    """canonical(table, outputs): column-closure outputs [(tag, parts)] as
    [(tag, {comp: LaurentPoly})], each part reduced against its declared
    denominators and the parts of one component summed, so that they compare
    by exact value with the generic route's tensor components."""
    from cprojver.poly import LaurentPoly, accumulate

    def convert(table, outputs):
        out = []
        for tag, parts in outputs:
            comps = {}
            for (comp, den), terms in parts.items():
                accumulate(comps, comp, LaurentPoly(table, terms, den))
            out.append((tag, comps))
        return out

    return convert
