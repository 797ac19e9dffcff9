"""Finite-gap Schrodinger backgrounds: divisor flow, Weyl solutions, and
transformation-operator kernels.

The package re-exports every public name of its modules; each module's
``__all__`` is the one list of its public names.

``LEVITAN_THREADS`` is applied here, before any submodule imports numpy;
set it before numpy is imported anywhere in the process.
"""

from ._threads import apply_thread_budget as _apply_thread_budget

try:
    _apply_thread_budget()
except ValueError:
    pass  # the ``levitan`` entry point reports it and exits with code 2

from . import cli, dubrovin, kernel, spectral, weyl
from .spectral import *
from .dubrovin import *
from .weyl import *
from .kernel import *
from .cli import *

__version__ = "0.1.0"

__all__ = [name for module in (spectral, dubrovin, weyl, kernel, cli)
           for name in module.__all__] + ["__version__"]
