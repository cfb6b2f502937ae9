"""The lazy package maps: a package resolves each exported name from its
defining module on first access (PEP 562), so importing a package or one
of its submodules loads none of the siblings."""

from __future__ import annotations

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

# Package -> a submodule that ``from package import submodule`` must find.
PACKAGES = {
    "repro": "util",
    "repro.core": "characterize",
    "repro.cudasim": "instructions",
    "repro.microbench": "stats",
    "repro.sanitize": "events",
}

# A fresh interpreter imports argv[1], lists the argv[1].* modules that
# loaded, then imports submodule argv[2] the way ``from ... import`` does.
_FRESH = """
import importlib, json, sys
package, sub = sys.argv[1], sys.argv[2]
importlib.import_module(package)
loaded = sorted(m for m in sys.modules if m.startswith(package + "."))
mod = getattr(__import__(package, fromlist=[sub]), sub)
print(json.dumps([loaded, mod.__name__, sys.modules[mod.__name__] is mod]))
"""


@pytest.mark.parametrize("package", list(PACKAGES))
def test_import_loads_no_submodule(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH, package, PACKAGES[package]],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    sub = f"{package}.{PACKAGES[package]}"
    assert json.loads(proc.stdout) == [[], sub, True]


@pytest.mark.parametrize("package", list(PACKAGES))
def test_every_export_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    exports = pkg._EXPORTS
    assert set(exports) <= set(pkg.__all__)
    for name in pkg.__all__:
        home = importlib.import_module(exports.get(name, package))
        obj = getattr(home, name)
        assert getattr(pkg, name) is obj, name
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # The map names where the object is defined, not a re-export.
            assert obj.__module__ == home.__name__, name
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(pkg.__all__) <= set(namespace)


@pytest.mark.parametrize("package", list(PACKAGES))
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match=f"module '{package}' has no attribute"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")
