"""Every function a module of the package exports has a caller in the
package or the demos; tests alone do not keep a helper alive."""
import importlib
import re
from pathlib import Path

import wentzell4

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wentzell4"

# exported references that only tests call, each with its reason
UNCALLED = {
    "exact_propagator": "dense spectral reference the time-stepping tests compare against",
}


def _exported_functions():
    """(module, name) of each function the package exports or a module
    lists in ``__all__``: Python functions and the compiled ones
    ``_scipy`` binds, not classes.  ``__main__`` runs the CLI when
    imported and exports nothing."""
    exports = [("wentzell4", name, value) for name, value in vars(wentzell4).items()
               if not name.startswith("_")]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"wentzell4.{path.stem}")
            exports += [(path.stem, name, getattr(module, name)) for name in module.__all__]
    return sorted({(module, name) for module, name, value in exports
                   if callable(value) and not isinstance(value, type)})


def _sources():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return "\n".join(path.read_text() for path in files)


def _called(module, name, text):
    # name( or module.name(; not another attribute (np.linalg.norm), not a
    # longer name, not its definition
    pattern = rf"(?<![.\w])(?<!def )(?:{re.escape(module)}\.)?{re.escape(name)}\("
    return re.search(pattern, text) is not None


def test_every_exported_function_has_a_caller():
    text = _sources()
    uncalled = {name for module, name in _exported_functions() if not _called(module, name, text)}
    assert sorted(uncalled) == sorted(UNCALLED)

