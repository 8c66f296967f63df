"""The compiled scipy modules the package calls, loaded from their files.

The package calls two of scipy's extension modules and nothing else of
scipy: five LAPACK wrappers of ``scipy.linalg._flapack`` and the CSR
products of ``scipy.sparse._sparsetools`` (``forms.band_matvec``).
Importing them by their names would run the ``__init__`` of
``scipy.linalg`` and ``scipy.sparse`` first, and with scipy 1.17 the
first clones numpy's namespace (``scipy._lib.array_api_compat.numpy``),
which imports ``numpy.f2py`` and ``numpy.testing``: about 180 ms and
24 MB of every start, for functions no command calls.  :func:`_extension`
instead loads each module from its file through the standard import
machinery, so that neither package ``__init__`` runs.  The functions are
the same objects either way, so every output keeps its bits.
``LinAlgError`` is taken from numpy: ``scipy.linalg.LinAlgError`` is the
same class.

Two rules keep the load invisible to code that imports scipy itself:

- A module whose package is already imported is imported the normal
  way, and so is one whose file is not found where it is looked for.
- No entry is left in ``sys.modules`` under the module's name: an entry
  there would never be bound on its package, so that a later
  ``import scipy.linalg._flapack`` could not reach it as an attribute.
  With the entry gone, a later import of the package returns the very
  same functions: CPython keeps a single-phase extension (the f2py and
  CSR modules) in its extension cache.
"""
from __future__ import annotations

import importlib
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from pathlib import Path

__all__ = [
    "csr_matvec",
    "csr_matvecs",
    "dpbtrf",
    "dpbtrs",
    "dsyevr",
    "dsyevr_lwork",
    "dsygvd",
]


def _extension(name):
    """The extension module ``name`` under scipy, loaded from its file
    without running the ``__init__`` of its package."""
    package = name.rpartition(".")[0]
    if name in sys.modules or package in sys.modules:
        return importlib.import_module(name)
    directory = Path(find_spec("scipy").submodule_search_locations[0], *package.split(".")[1:])
    spec = FileFinder(str(directory), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        return importlib.import_module(name)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)
    return module


_flapack = _extension("scipy.linalg._flapack")
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs
dsyevr, dsyevr_lwork, dsygvd = _flapack.dsyevr, _flapack.dsyevr_lwork, _flapack.dsygvd
_sparsetools = _extension("scipy.sparse._sparsetools")
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs

