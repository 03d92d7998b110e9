"""The benchmark's tracer and the baseline script still fit the package.

Both live outside `src/` and reach into it by name.  The tracer skips a
name it cannot find, so a removed or renamed function would silently read
0 in the benchmark; the script would fail only when someone runs it.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(relative: str):
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_and_script_imports_resolve():
    tracing = load_by_path("navbench/tracing.py")
    for module, names in tracing.TRACED.items():
        mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        missing = [name for name in names
                   if not callable(getattr(mod, name, None))]
        assert not missing, f"{module} lacks traced names {missing}"
    script = load_by_path("scripts/measure_baselines.py")
    assert all(callable(fn) for fn in script.SECTIONS.values())


def test_connectivity_census_contrast():
    # at density 1, r=3 connects everything; r=1 essentially never does
    script = load_by_path("scripts/measure_baselines.py")
    assert script.connectivity_census(64, 3.0, range(10)) == 1.0
    assert script.connectivity_census(64, 1.0, range(10)) == 0.0
