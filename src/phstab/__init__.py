"""Sublevel-set persistence for piecewise-constant functions on finite
simplicial complexes: exact diagrams, exact bottleneck distances, and a
constructive certificate that diagrams move no farther than the functions.

Everything is computed in exact rational arithmetic (fractions.Fraction);
math.inf is the single sentinel for infinite deaths.  The package root
exports what the README's example uses, PhstabError (the base of every
error raised) and InternalProofViolation (the one that means a bug);
everything else is reached through its module (``from phstab import cli``).
"""

from .bottleneck import bottleneck_bijection
from .complexes import FiltrationFunction, validate_complex
from .errors import InternalProofViolation, PhstabError
from .persistence import diagram
from .stability import verify_stability

__version__ = "0.1.0"

__all__ = [
    "FiltrationFunction",
    "InternalProofViolation",
    "PhstabError",
    "bottleneck_bijection",
    "diagram",
    "validate_complex",
    "verify_stability",
]
