"""The package's modules form layers: each imports only from lower ones."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "addspan"

#: graph -> engine -> diagnostics and sweep -> cli -> __init__
LAYERS = {"graph": 0, "engine": 1, "diagnostics": 2, "sweep": 2, "cli": 3, "__init__": 4}


def package_imports(path: Path) -> set[str]:
    """Modules of the package named by the relative imports of one file,
    including imports under ``if TYPE_CHECKING:`` and inside functions."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_imports_only_lower_layers(module):
    imported = package_imports(PACKAGE / f"{module}.py")
    upward = sorted(m for m in imported if LAYERS[m] >= LAYERS[module])
    assert upward == [], f"{module} imports from its own or a higher layer: {upward}"
