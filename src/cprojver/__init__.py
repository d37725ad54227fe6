"""Exact-arithmetic verification engine for c-projective structures.

Subsystems:

* ``poly``, ``parse``, ``linalg`` -- sparse Laurent polynomials over Q with
  declared denominators, deterministic kernels and ranks.  Every coefficient
  is an int or a ``Fraction``; a complex scalar is a pair (re, im) of them.
* ``slpair`` -- the graded real Lie algebra sl(n+1,C)_R, its complexified
  double, and root data; matrices hold their real and imaginary parts.
* ``prolong`` -- curvature-module lowest weight vectors, annihilators, Tanaka
  prolongations, and the dimension tables.
* ``structlie`` -- structure-constant Lie algebras: Jacobi checks, derived
  series, gradings, cochain deformations.
* ``tensorcalc`` -- chart tensor calculus: torsion, curvature, Nijenhuis,
  torsion projections, Lie derivatives of connections.
* ``symsolve`` -- exact kernels of symmetry PDE systems over finite ansatz
  spaces.
* ``metric`` -- pseudo-Kahler machinery: Levi-Civita, mobility, parallel
  forms, equivalent-metric families.
* ``catalog`` -- built-in model manifests with expected results.
* ``cli`` -- the ``cproj`` verification front end.
"""

__version__ = "0.1.0"


def backend_name() -> str:
    """Always ``"python"``: the package is pure Python.  Kept because the
    benchmark records it in its environment block."""
    return "python"


__all__ = ["backend_name", "__version__"]
