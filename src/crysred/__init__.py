"""crysred: exact-arithmetic reductions of two-dimensional crystalline
representations of unramified p-adic fields.

The pipeline normalizes lattice data into Type form, builds the associated
semilinear Frobenius matrices over the extended power-series ring, descends
them to integral coefficients by successive approximation, and reads off
the fundamental-character description of the mod-p reduction.
"""

__version__ = "0.1.0"

from .arith import OFElem, PrimeContext, USeries  # noqa: F401
from .sring import SElem, PhiExpPoly  # noqa: F401
