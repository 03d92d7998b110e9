"""The benchmark's tracer, the baseline script and the README still fit
the package.

The tracer and the script live outside `src/` and reach into it by name.
The tracer skips a name it cannot find, so a removed or renamed function
would silently read 0 in the benchmark; the script would fail only when
someone runs it.  Neither may import a private (underscore) name, which
the package is free to change without notice.  One small round of each
benchmark workload, untraced and traced, passes the benchmark's own
checks.  The README's scenario-key table names every key a scenario file
takes, and no other.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

from skeleton_nav.harness import SCENARIO_KEYS

ROOT = Path(__file__).resolve().parent.parent


def load_by_path(relative: str, monkeypatch=None):
    """The file as a module; given `monkeypatch`, registered in
    `sys.modules` for the test first, as a dataclass defined in it needs."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, spec.name, module)
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


def test_benchmark_rounds_pass_their_checks(monkeypatch):
    # each workload at n = 1024: once untraced, once traced as `measure`
    # traces a round
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends
    bench = load_by_path("navbench/run.py", monkeypatch)
    h = bench.import_package()
    for name in bench.WORKLOADS:
        sc = bench.scenario_for(h, name, 1, n=1024)
        census = name == "census-large"
        round_of = bench.census_round if census else bench.query_round
        plain = round_of(h, sc, None, None)
        tracer = bench.Tracer()
        tracer.install()
        try:
            traced = round_of(h, sc, tracer, None)
        finally:
            tracer.uninstall()
        for rnd in (plain, traced):
            assert not rnd.problems and not rnd.run_problems, name
            assert rnd.attempted > 0 and rnd.failed == 0, name
            if not census:
                by_tag = sum(count for key, count in rnd.counts.items()
                             if key.startswith("skeleton.awake."))
                assert by_tag == rnd.awake[0] > 0, name
        if name == "exposure-points":
            assert 0 < tracer.counts["voronoi_nodes"] < sc.n


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
