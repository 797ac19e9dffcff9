"""Finite-gap Schrodinger backgrounds: divisor flow, Weyl solutions, and
transformation-operator kernels.

The package re-exports every public name of its modules; each module's
``__all__`` is the one list of its public names.
"""

from . import cli, dubrovin, kernel, spectral, weyl
from .spectral import *
from .dubrovin import *
from .weyl import *
from .kernel import *
from .cli import *

__version__ = "0.1.0"

__all__ = [name for module in (spectral, dubrovin, weyl, kernel, cli)
           for name in module.__all__] + ["__version__"]
