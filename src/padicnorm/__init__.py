"""Exact computations with splittable non-archimedean norms on Q^n.

Each module below declares its share of the package's exports once, in its __all__, and the
package re-exports their concatenation."""

from .valuation import *
from .norms import *
from .splittings import *
from .stabilizer import *
from .base_change import *
from .building import *
from . import base_change, building, norms, splittings, stabilizer, valuation

__version__ = "0.1.0"

__all__ = (
    valuation.__all__ + norms.__all__ + splittings.__all__
    + stabilizer.__all__ + base_change.__all__ + building.__all__
)
