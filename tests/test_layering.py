"""The package's modules import each other in one direction: ``numerics``
and ``fock`` at the bottom, ``homodyne`` and ``metrics`` on them, and
``protocol`` on those four. The quadrature bases are built in
``homodyne``, the module that measures with them."""

import ast
from pathlib import Path

import pytest

import qpbreed
from qpbreed import fock, homodyne

ALLOWED = {
    "numerics": set(),
    "fock": set(),
    "homodyne": {"fock", "numerics"},
    "metrics": {"fock"},
    "protocol": {"fock", "homodyne", "metrics", "numerics"},
}


def package_imports(module: str) -> set[str]:
    """The ``qpbreed`` modules that a module's source imports, relatively
    or by the package name."""
    tree = ast.parse((Path(qpbreed.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(part for part in ("qpbreed" * bool(node.level), node.module) if part)
            if source == "qpbreed":  # from . import x, from qpbreed import x
                paths = [f"qpbreed.{alias.name}" for alias in node.names]
            else:
                paths = [source]
        else:
            continue
        found.update(path.split(".")[1] for path in paths if path.startswith("qpbreed."))
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_the_layers_below_it(module):
    assert package_imports(module) <= ALLOWED[module]


def test_the_import_scan_finds_the_relative_imports():
    assert package_imports("protocol") == ALLOWED["protocol"]
    assert package_imports("homodyne") == ALLOWED["homodyne"]


def test_the_quadrature_bases_are_built_in_homodyne():
    assert homodyne.quadrature_basis.__module__ == "qpbreed.homodyne"
    assert homodyne.QuadratureBasis.__module__ == "qpbreed.homodyne"
    assert not hasattr(fock, "quadrature_basis") and not hasattr(fock, "QuadratureBasis")
    assert qpbreed.quadrature_basis is homodyne.quadrature_basis
    assert homodyne.quadrature_basis.cache_info().maxsize is None
