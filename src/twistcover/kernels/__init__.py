"""Kernel backend selection.

The compiled extension is used when it imports; the pure-Python module is
the fallback and the reference.  BACKEND says which one is active.
"""

from . import pure

compiled = None
try:
    from . import _compiled as compiled  # type: ignore[no-redef]
except ImportError:
    compiled = None

if compiled is not None:
    _impl = compiled
    BACKEND = "compiled"
else:
    _impl = pure
    BACKEND = "python"

CONVERGED = pure.CONVERGED
FLOAT_LIMIT = pure.FLOAT_LIMIT
ITER_CAP = pure.ITER_CAP

cheb_ratio = _impl.cheb_ratio
phi_delta = _impl.phi_delta
bisect_phi_delta = _impl.bisect_phi_delta
cover_compose = _impl.cover_compose

__all__ = [
    "BACKEND",
    "CONVERGED",
    "FLOAT_LIMIT",
    "ITER_CAP",
    "bisect_phi_delta",
    "cheb_ratio",
    "compiled",
    "cover_compose",
    "phi_delta",
    "pure",
]
