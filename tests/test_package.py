"""The package carries only what its commands, docs, demos, benchmark and CI use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def identifiers(tree: ast.AST):
    """(line, name) for each name a module uses: names, attributes, imported names, and the parts of every string
    that is a dotted name, as ``perfbench/tracing.py`` names the functions it wraps."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.alias):
            yield node.lineno, node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"[\w.]+", node.value):
            yield from ((node.lineno, part) for part in node.value.split("."))


def definitions(tree: ast.Module):
    """(qualified name, first line, last line) of each public top-level function and class, and each public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def test_every_public_definition_is_used_outside_its_own_definition_and_the_tests():
    """Each public function, class and method of ``src/ckl`` is referenced elsewhere in the package, in the
    README's code, in a demo, in the benchmark harness (its tests aside) or in a CI workflow."""
    modules = {path: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "ckl").glob("*.py"))}
    used = {path: list(identifiers(tree)) for path, tree in modules.items()}
    outside = {name for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/**/*.py")]
               if "tests" not in path.relative_to(ROOT).parts for _line, name in identifiers(ast.parse(path.read_text()))}
    readme_code = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)
    workflows = [path.read_text() for path in ROOT.glob(".github/workflows/*.yml")]
    outside |= {name for text in readme_code + workflows for name in re.findall(r"[A-Za-z_]\w*", text)}
    unused = []
    for path, tree in modules.items():
        elsewhere = outside | {name for other, names in used.items() if other != path for _line, name in names}
        for qualname, first, last in definitions(tree):
            name = qualname.rpartition(".")[2]
            if name not in elsewhere and not any(n == name and not first <= line <= last for line, n in used[path]):
                unused.append(f"{path.stem}.{qualname}")
    assert unused == []
