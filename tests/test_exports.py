"""Every name that a kab module lists in __all__ exists in that module, every
function the benchmark's tracer wraps exists where it looks for it, the
library calls warn in one function only, and no private helper or relative
import is left unused.

A stale entry fails only on `from kab.<module> import *`, and a stale tracer
name only in `perfbench/run.py --trace 1`, so both are checked here.

Every public name earns its place: each name in a module's __all__ is read
somewhere in src/kab outside its own definition, or is listed in
UNREAD_EXPORTS with the paper section whose identity it checks, or another
reason.  kab/__init__.py's re-exports are not reads.  A listed name that no
__all__ holds, or that src/kab reads, fails too, so the list cannot go stale.
"""
import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import kab

MODULES = sorted(m.name for m in pkgutil.iter_modules(kab.__path__))


def test_modules_found():
    assert {"specfun", "operators", "exact", "semiclassics", "evolution"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"kab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    missing = [
        f"{module}.{name}"
        for module, name, *_ in _tracer().TRACED
        if not callable(getattr(importlib.import_module(f"kab.{module}"), name, None))
    ]
    assert missing == []


def test_cached_functions_have_cache_info():
    # the tracer reads cache_info() of each CACHED name through its TRACED entry
    tracer = _tracer()
    where = {name: module for module, name, *_ in tracer.TRACED}
    missing = [
        name
        for name in tracer.CACHED
        if name not in where
        or not hasattr(getattr(importlib.import_module(f"kab.{where[name]}"), name), "cache_info")
    ]
    assert missing == []


def _warn_sites():
    """(module, innermost enclosing function) of each warn call in src/kab,
    whether spelt warnings.warn or warn."""
    sites = []

    def visit(node, module, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "attr", getattr(func, "id", None)) == "warn":
                    sites.append((module, where))
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            visit(child, module, inner)

    for path in sorted(Path(kab.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return sites


def test_warn_only_in_mehler_fock_inverse():
    # the one bare library warning left: every other estimate is reported in
    # the result, not on stderr (warn_explicit in cli.main re-issues, and is
    # not a warn call)
    assert set(_warn_sites()) == {("exact", "mehler_fock_inverse")}


def _trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(kab.__file__).parent.glob("*.py"))}


def _loaded(tree):
    """Names a module reads (loads and attribute names)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_private_names_referenced():
    # a private module-level name of src/kab that nothing in src/kab reads or
    # imports is dead code (no linter runs here to say so)
    trees = _trees()
    used = set().union(*map(_loaded, trees.values())) | {
        alias.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}.{n}" for n in names
                     if n.startswith("_") and not n.startswith("__") and n not in used]
    assert dead == []


def test_relative_imports_used():
    # every name a module imports from a sibling is read there, or listed in
    # its __all__; the package's __init__ imports to re-export
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":
            continue
        exported = set(getattr(importlib.import_module(f"kab.{module}"), "__all__", ()))
        loaded = _loaded(tree) | exported
        unused += [f"{module}: {alias.asname or alias.name}"
                   for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
                   for alias in node.names if (alias.asname or alias.name) not in loaded]
    assert unused == []


def test_one_lanczos_call_site():
    # both eigensolvers run operators._thick_restart_lanczos through
    # operators._lanczos, the one place that seeds it, sets its basis and
    # restart cap and checks its pairs; nothing calls ARPACK's eigsh
    def calls(tree, name):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]

    trees = _trees()
    helper = next(node for node in trees["operators"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_lanczos")
    sites = [node for tree in trees.values() for node in calls(tree, "_thick_restart_lanczos")]
    assert len(sites) == 1 and calls(helper, "_thick_restart_lanczos") == sites
    assert [node.lineno for tree in trees.values() for node in calls(tree, "eigsh")] == []


# public names that only tests and users call, each with its reason
UNREAD_EXPORTS = {
    "evolution.mm_rhs": "Sec. 2: right side of the evolution equation, point by point",
    "exact.mm_k01_residual": "Sec. 2: K_01 eigenrelation of the conical modes (A-5)",
    "exact.apply_L": "Sec. 3: L by finite differences, against its exact action",
    "exact.apply_ell": "Sec. 3: ell, whose function g(ell) is K_00",
    "exact.k00_eigenfunction": "Sec. 3: the plane waves of K_00",
    "exact.verify_g_of_ell": "Sec. 3: K_00 = g(ell)",
    "exact.mm_commutator_projections": "Sec. 3: [L, K_01] = 0 (A-6)",
    "exact.mehler_fock_inverse": "Sec. 3: inverse Mehler-Fock transform (A-7)",
    "semiclassics.linear_potential_solution": "Sec. 4: Bessel check of the boundary model (A-10)",
    "exact.hyperbolic_similarity_check": "Appendix A: conical modes solve the hyperbolic Laplacian",
    "operators.monomial_action_k11": "Appendix B: K_11 on monomials",
    "operators.pseudospectral_matrix": "not a paper identity: perfbench/tracer.py wraps it",
}


def _reads_by_definition():
    """(module, top-level name defined or None, names read) for each
    top-level statement of src/kab but __init__; a relative import reads
    the names it imports."""
    return [
        (module, getattr(node, "name", None), _loaded(node) | {
            alias.name for alias in getattr(node, "names", ())
            if isinstance(node, ast.ImportFrom) and node.level})
        for module, tree in _trees().items() if module != "__init__"
        for node in tree.body
    ]


def test_exports_read_or_listed():
    reads = _reads_by_definition()
    unread = {
        f"{module}.{name}"
        for module in MODULES
        for name in getattr(importlib.import_module(f"kab.{module}"), "__all__", ())
        if not any(name in names and (where, defined) != (module, name)
                   for where, defined, names in reads)
    }
    assert sorted(unread - UNREAD_EXPORTS.keys()) == []  # unread and not listed
    assert sorted(UNREAD_EXPORTS.keys() - unread) == []  # listed, but read or gone
