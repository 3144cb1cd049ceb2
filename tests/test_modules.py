"""Module boundaries of the package.

The oracle is an independent check of the classifier, so it reads no
classifier logic; the classifier reads only the public answers of the
modules it asks (names without a leading underscore)."""

import ast
from pathlib import Path

import wro

SRC = Path(wro.__file__).resolve().parent


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / ("%s.py" % name)).read_text(encoding="utf-8"))


def _package_imports(tree: ast.Module):
    """(module, imported name) for every relative import of the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield node.module, alias.name


def test_oracle_imports_no_classifier_logic():
    imports = list(_package_imports(_tree("oracle")))
    assert imports
    for module, name in imports:
        assert module not in ("classify", "analysis"), (module, name)
        assert not (module is None and name in ("classify", "analysis")), (module, name)


def test_classify_reads_only_public_names():
    tree = _tree("classify")
    for module, name in _package_imports(tree):
        assert not name.startswith("_"), (module, name)
    modules = {name for module, name in _package_imports(tree) if module is None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                assert not node.attr.startswith("_"), "%s.%s" % (node.value.id, node.attr)
