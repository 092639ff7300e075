"""The package's exception classes, one for each CLI error category.

The CLI prints every failure as ``error: <category>: <message>``, and each
class here carries its category word as ``category``. Library callers catch
the same classes from ``satpinhole``. A bad argument is a plain ValueError
(``invalid``), and a file that cannot be read or written an OSError (``io``).
"""

from __future__ import annotations


class FormatError(ValueError):
    """A text document (RPC sidecar, camera, warp, equivalence report, tile
    manifest or ASCII grid) is missing a field or holds a malformed value."""
    category = "parse"


class DegenerateError(ValueError):
    """The data do not pin down a fit: too few or degenerate points, or a
    rational denominator that falls to zero or below."""
    category = "degenerate"


class IllConditionedError(ValueError):
    """The DLT system of a camera or homography has no unique solution."""
    category = "ill-conditioned"


class DecompositionError(ValueError):
    """The projection matrix does not factor into a physical camera."""
    category = "decomposition"


class ConvergenceError(RuntimeError):
    """The inverse projection iteration failed to converge."""
    category = "convergence"


class LatticeError(ValueError):
    """Rasters do not share a cell lattice, or share no valid cell."""
    category = "lattice"
