"""Exact verification of Jacobsthal-number identities and rigorous
enclosure of the four reciprocal series built on them.

All arithmetic on any decision path is exact (integers and rationals);
floor/ceiling claims about series limits are decided through adaptive
interval refinement, never through floating point.

The package API is the union of the `__all__` lists of `identities`,
`intervals`, `sequence`, `series` and `theorems`; each name is listed
once, in its own module.
"""

from .identities import *
from .intervals import *
from .sequence import *
from .series import *
from .theorems import *

__version__ = "0.1.0"
