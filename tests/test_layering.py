"""Import layering: only the runner and the analysis layer import ``repro.runner``.

The domain model (``core``, ``graphs``, ``adversary`` ...) must not know
about pools, journals or the executor.  Every import statement of every
module is checked -- function-local ones included, since a lazy import
inside a method is exactly how such a dependency hides.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Top-level subpackages allowed to import ``repro.runner``.
ALLOWED = {"runner", "analysis"}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_runner(name: str) -> bool:
    return name == "repro.runner" or name.startswith("repro.runner.")


def _imports(path: Path):
    """``(lineno, name)`` of every import statement in ``path``, at any depth.

    ``name`` is the absolute module imported; for ``from package import x``
    it is ``package.x`` when that is the runner (``from repro import
    runner``).
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            names = [target] + [f"{target}.{alias.name}" for alias in node.names]
            yield node.lineno, next((name for name in names if _is_runner(name)), target)


def _layer_violations():
    violations = []
    for path in sorted(PACKAGE_ROOT.rglob("*.py")):
        relative = path.relative_to(PACKAGE_ROOT).parts
        if len(relative) > 1 and relative[0] in ALLOWED:
            continue
        for lineno, name in _imports(path):
            if _is_runner(name):
                violations.append(f"{path.relative_to(PACKAGE_ROOT)}:{lineno} imports {name}")
    return violations


def test_only_runner_and_analysis_import_the_runner():
    assert _layer_violations() == []


def test_checker_sees_function_local_and_relative_imports(tmp_path, monkeypatch):
    """The walker itself: lazy and relative imports are both caught."""
    package = tmp_path / "repro" / "core"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "lazy.py").write_text(
        "def f():\n    from repro.runner.executor import execute\n"
    )
    (package / "relative.py").write_text("from .. import runner\n")
    monkeypatch.setitem(globals(), "PACKAGE_ROOT", tmp_path / "repro")
    assert _layer_violations() == [
        "core/lazy.py:2 imports repro.runner.executor",
        "core/relative.py:1 imports repro.runner",
    ]
