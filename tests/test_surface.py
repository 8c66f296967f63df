"""Every function the package exports has a caller in the package or the
demos; tests alone do not keep a helper alive."""
import inspect
import re
from pathlib import Path

import wentzell4

ROOT = Path(__file__).resolve().parent.parent

# exported references that only tests call, each with its reason
UNCALLED = {
    "exact_propagator": "dense spectral reference the time-stepping tests compare against",
}


def _exported_functions():
    return sorted(
        name for name, value in vars(wentzell4).items()
        if not name.startswith("_") and inspect.isfunction(value)
    )


def _sources():
    files = sorted((ROOT / "src" / "wentzell4").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return "\n".join(path.read_text() for path in files)


def _called(name, text):
    # not an attribute (np.linalg.norm), not a longer name, not its definition
    return re.search(rf"(?<![.\w])(?<!def ){re.escape(name)}\(", text) is not None


def test_every_exported_function_has_a_caller():
    text = _sources()
    uncalled = [name for name in _exported_functions() if not _called(name, text)]
    assert uncalled == sorted(UNCALLED)

