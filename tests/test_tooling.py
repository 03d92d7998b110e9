"""The benchmark's tracer, the baseline script and the README still fit
the package.

The tracer and the script live outside `src/` and reach into it by name.
The tracer skips a name it cannot find, so a removed or renamed function
would silently read 0 in the benchmark; the script would fail only when
someone runs it.  Neither may import a private (underscore) name, which
the package is free to change without notice.  The README's scenario-key
table names every key a scenario file takes, and no other.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

from skeleton_nav.harness import SCENARIO_KEYS

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


def private_package_imports(path: Path) -> list[str]:
    """Underscore names that a file imports from skeleton_nav."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [name for name in names
                  if name.split(".")[0] == "skeleton_nav"
                  and any(part.startswith("_") for part in name.split("."))]
    return found


def test_tooling_imports_no_private_package_names():
    files = sorted([*ROOT.glob("scripts/*.py"), *ROOT.glob("navbench/*.py")])
    assert files
    private = {str(f.relative_to(ROOT)): names for f in files
               if (names := private_package_imports(f))}
    assert not private, f"private skeleton_nav imports: {private}"


def test_connectivity_census_contrast():
    # at density 1, r=3 connects everything; r=1 essentially never does
    script = load_by_path("scripts/measure_baselines.py")
    assert script.connectivity_census(64, 3.0, range(10)) == 1.0
    assert script.connectivity_census(64, 1.0, range(10)) == 0.0


def readme_scenario_keys() -> list[str]:
    """The keys in the first column of the README's scenario-key table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Scenario keys\n\n", 1)[1].split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # past the header and its rule
    return [key for row in rows
            for key in re.findall(r"`([^`]+)`", row.split("|")[1])]


def test_readme_scenario_table_names_every_key():
    assert readme_scenario_keys() == list(SCENARIO_KEYS)
