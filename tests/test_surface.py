"""The public surface: every public top-level function and class of the
library has a caller in the library or the benchmark, and the README's
library sketch runs as written."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "hyperrings"


def public_definitions(tree: ast.Module):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(tree: ast.AST) -> Counter:
    """How often the tree reads each name, as a variable, an attribute or a
    string equal to it (the benchmark's tracer looks functions up by name).
    Imports and docstrings do not count."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_public_name_has_a_caller():
    """A public top-level function or class of a library module is read
    outside its own definition, in the library (``__init__.py``, which only
    re-exports, not counted) or in ``perfbench/``."""
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"))

    library = {path.stem: parse(path) for path in sorted(LIBRARY.glob("*.py"))
               if path.name != "__init__.py"}
    bench = [parse(path) for path in sorted((ROOT / "perfbench").glob("*.py"))]
    everywhere = sum(map(references, [*library.values(), *bench]), Counter())
    uncalled = [f"{module}.{node.name}" for module, tree in library.items()
                for node in public_definitions(tree)
                if everywhere[node.name] <= references(node)[node.name]]
    assert not uncalled, f"no caller in src/ or perfbench/: {uncalled}"


def test_readme_library_sketch_runs(capsys):
    """The sketch under "Library sketch" is the one usage the README
    documents; it runs on the installed names."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "[0]" in out and "ClassificationFlags(" in out
