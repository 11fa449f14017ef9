"""Representations of twist knot groups into the universal cover of SL(2,R).

The pipeline: exact defining polynomials (exactpoly), certified numeric roots
(solver), the matrix representation and the longitude's closed-form
holonomy (rep), the slope map g and its inversion (slopes), and lifting to
the universal cover with surgery certificates (cover).  checks bundles the
runtime invariant suites, the exact proof of the longitude lemmas among
them; cli is the command line frontend, and the one module that formats
output.  kernels holds the four hot inner loops that solver and cover
call.
"""

from ._version import __version__
from .cover import (
    CoverElem,
    SU11Elem,
    SurgeryCertificate,
    certificate,
    chart,
    cover_inv,
    cover_mul,
    cover_pow,
    cover_word,
    from_su11,
    lift_generators,
    lifted_longitude,
    to_su11,
    unchart,
)
from .errors import (
    CertificateFailed,
    DomainError,
    LongitudeOmegaNonzero,
    NonConvergence,
    NumericsError,
    RelatorNotCentral,
    SlopeOutOfRange,
)
from .exactpoly import TRACE_POLY, BivarPoly, riley_poly, tau_poly
from .rep import Mat2, gen_matrices, longitude_holonomy
from .slopes import SlopeSample, g_eval, invert, scan
from .solver import RepSolution, phi_num, solve, t_from_T, tau_num

