"""Static checks on the package's imports, read from the source with ast.

Every import sits at module level, every name a module imports is used, and
finfield, which holds the int-tuple polynomial kernel, imports nothing from
the package, so it stays at the bottom of the import graph.  intpoly does its
arithmetic over Z on integers alone, and weil's Sturm check and certificates
are integer arithmetic too, so neither imports anything from fractions; no
module reaches into intpoly's private helpers.  The weil certificate
factors nothing mod ell: weil imports neither degree_shape_mod nor
factor_mod, and no module defines degree_shape_mod.  IntPoly is intpoly's one
polynomial class: over GF(p) a polynomial is finfield's int tuple, with no
wrapper class.  finfield.power is the one
square-and-multiply loop: no other code in the package shifts with >> or
reads an exponent's bits with bin().  groups._mulclose is the one closure
loop, and groups imports no itertools.product, so no group is listed by a
scan of the matrix space.  The Goursat check lists no group: no module
defines MAX_CLOSURE or MAX_FACTOR_ORDER, and density neither imports nor
calls _mulclose, _packed_group, enumerate_group*, pack_matrix,
unpack_matrix or _part_generators, the listing's generators: its random
generators come from groups._uniform_derived.  groups' natural int matrices (_imat_mul, _imat_inverse) are
the one layer of matrix products and inverses: no module defines mat_mul or
mat_inverse, the field-element products and inverse that tests/oracles.py
keeps as references.  The record types are plain slotted classes: no module
imports dataclasses, and importing the CLI loads none of the introspection
modules (inspect, ast, dis, tokenize) that dataclasses pulls in, which
would add to the start-up of every command.

src holds the production paths only: the definitional oracles that the
closed forms replaced live in tests/oracles.py, and no src module defines a
*_oracle or *_exhaustive function other than classify_element_oracle, which
the benchmark binds by name.  Every (module, name) that perfbench/spans.py
traces and every groups attribute that perfbench/certify.py calls resolves
in the package, so moving a function out of src cannot silently leave a
traced bench run without its layer; these files are read, not imported.

Every top-level function and class in src is reached from what the package
serves: cli.main, the module-level statements, the library API the README
documents, and the names the benchmark binds.  Reach is the closure over
the names each reached definition uses, resolved in its module through the
package's own imports; a definition outside it is code nothing runs.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "frobsplit"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node):
    """The names a top-level import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [(a.asname or a.name).split(".")[0] for a in node.names]


def test_the_package_has_modules():
    assert {"finfield.py", "intpoly.py", "groups.py", "cli.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    nested = []
    for fn in ast.walk(_tree(path)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nested += [
                f"{fn.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))
            ]
    assert nested == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = [
        name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported if name not in used] == []


def test_finfield_imports_nothing_from_the_package():
    tree = _tree(PACKAGE / "finfield.py")
    internal = [
        ast.unparse(node)
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("frobsplit")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("frobsplit") for a in node.names))
    ]
    assert internal == []


def _imports_of(path, module):
    """The statements of the file at path that import from module."""
    return [
        ast.unparse(node)
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.ImportFrom) and node.module == module)
        or (isinstance(node, ast.Import) and any(a.name == module for a in node.names))
    ]


def test_intpoly_imports_nothing_from_fractions():
    assert _imports_of(PACKAGE / "intpoly.py", "fractions") == []


def test_weil_imports_nothing_from_fractions():
    assert _imports_of(PACKAGE / "weil.py", "fractions") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert _imports_of(path, "dataclasses") == []


def test_importing_the_cli_loads_no_introspection_modules():
    # only the modules this import adds count, whatever the interpreter's start-up loads
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import frobsplit.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}\n"
        "print(' '.join(sorted(heavy & (set(sys.modules) - before))))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert run.stdout.split() == []


def test_intpoly_defines_one_polynomial_class():
    classes = [
        node.name
        for node in _tree(PACKAGE / "intpoly.py").body
        if isinstance(node, ast.ClassDef)
        and not any(isinstance(b, ast.Name) and b.id.endswith(("Error", "Exception")) for b in node.bases)
    ]
    assert classes == ["IntPoly"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_is_imported_from_intpoly(path):
    private = [
        f"{alias.name}:{node.lineno}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "intpoly"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_weil_certificate_factors_nothing_mod_ell():
    imported = [
        alias.name
        for node in ast.walk(_tree(PACKAGE / "weil.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "degree_shape_mod" not in imported and "factor_mod" not in imported
    shape = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name == "degree_shape_mod"
    ]
    assert shape == []


def test_power_is_the_one_exponentiation_loop():
    loops = []
    for path in MODULES:
        tree = _tree(path)
        inside_power = {
            id(node)
            for fn in tree.body
            if path.name == "finfield.py" and isinstance(fn, ast.FunctionDef) and fn.name == "power"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            shift = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.RShift)
            bits = isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bin"
            if (shift or bits) and id(node) not in inside_power:
                loops.append(f"{path.name}:{node.lineno}")
    assert loops == []


def test_mulclose_is_the_one_closure_loop_and_groups_scans_no_matrix_space():
    closures = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name == "_mulclose"
    ]
    assert len(closures) == 1 and closures[0].startswith("groups.py:")
    scans = [
        ast.unparse(node)
        for node in ast.walk(_tree(PACKAGE / "groups.py"))
        if (isinstance(node, ast.ImportFrom) and node.module == "itertools" and any(a.name == "product" for a in node.names))
        or (isinstance(node, ast.Attribute) and node.attr == "product" and ast.unparse(node.value) == "itertools")
    ]
    assert scans == []


def test_no_product_closure_in_the_goursat_check():
    caps = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Name) and node.id in ("MAX_CLOSURE", "MAX_FACTOR_ORDER")
    ]
    assert caps == []

    def listing(name):
        names = ("_mulclose", "_packed_group", "pack_matrix", "unpack_matrix", "_part_generators")
        return name in names or name.startswith("enumerate_group")

    uses = [
        f"density.py:{node.lineno}"
        for node in ast.walk(_tree(PACKAGE / "density.py"))
        if (isinstance(node, ast.ImportFrom) and any(listing(a.name) for a in node.names))
        or (isinstance(node, ast.Name) and listing(node.id))
        or (isinstance(node, ast.Attribute) and listing(node.attr))
    ]
    assert uses == []


def test_no_module_multiplies_or_inverts_field_element_matrices():
    defined = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef) and node.name in ("mat_mul", "mat_inverse")
    ]
    assert defined == []


# the oracles that left src for tests/oracles.py, and the one that stays
MOVED_ORACLES = {
    "normalizer_census_oracle",
    "regular_torus_count_oracle",
    "torus_element_matrices",
    "exhaustive_classification",
    "cm_subfield_fraction_exhaustive",
}
BENCH_BOUND_ORACLES = {"classify_element_oracle"}


def test_src_defines_no_definitional_oracle():
    defined = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef)
        and (node.name in MOVED_ORACLES or node.name.endswith(("_oracle", "_exhaustive")))
        and node.name not in BENCH_BOUND_ORACLES
    ]
    assert defined == []


def _layer_functions():
    """perfbench/spans.py's LAYER_FUNCTIONS, read off its source."""
    for node in _tree(PERFBENCH / "spans.py").body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["LAYER_FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYER_FUNCTIONS")


def _certify_groups_names():
    """The attributes perfbench/certify.py reads off groups or self.groups."""
    return {
        node.attr
        for node in ast.walk(_tree(PERFBENCH / "certify.py"))
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in ("groups", "self.groups")
    }


def test_every_name_the_benchmark_binds_resolves_in_the_package():
    bound = [(module, name) for module, names in _layer_functions().items() for name in names]
    certify = _certify_groups_names()
    assert {"enumerate_group", "classify_element_oracle"} <= certify
    bound += [("frobsplit.groups", name) for name in sorted(certify)]
    missing = [f"{module}.{name}" for module, name in bound if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def _weilbatch_names():
    """The (module, name) pairs perfbench/weilbatch.py reads off the package:
    its imports from it, and the attributes of the modules it imports."""
    tree = _tree(PERFBENCH / "weilbatch.py")
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("frobsplit"):
            for alias in node.names:
                if (PACKAGE / f"{alias.name}.py").is_file():
                    modules[alias.asname or alias.name] = f"frobsplit.{alias.name}"
                else:
                    names.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = ast.unparse(node.value).removeprefix("self.")
            if base in modules:
                names.add((modules[base], node.attr))
    return names


# the library API the README documents, beyond what cli.main reaches
README_API = {
    "frobsplit.finfield": ("make_field", "power", "frobenius_orbit", "minimal_polynomial", "subfield_degree"),
    "frobsplit.intpoly": ("IntPoly", "factor_mod", "is_irreducible_mod", "factor_over_Z", "dth_root"),
    "frobsplit.groups": ("GroupDescriptor", "torus_census", "normalizer_census", "classify_element"),
    "frobsplit.density": ("GaloisModel", "density_product", "cm_subfield_fraction", "goursat_verify"),
    "frobsplit.weil": ("weil_validate", "analyze", "simplicity_certificate", "CMSignature", "non_special"),
}


def _package_scopes():
    """{module: (top-level definitions by name, {local name: (module, name)}
    for each name it imports from the package, the other top-level statements)}."""
    scopes = {}
    for path in MODULES:
        module = f"frobsplit.{path.stem}"
        defs, imported, rest = {}, {}, []
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imported[alias.asname or alias.name] = (f"frobsplit.{node.module or '__init__'}", alias.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                rest.append(node)
        scopes[module] = (defs, imported, rest)
    return scopes


def test_every_src_definition_is_reached_from_the_cli_the_api_or_the_benchmark():
    scopes = _package_scopes()
    bench = {(module, name) for module, names in _layer_functions().items() for name in names}
    bench |= {("frobsplit.groups", name) for name in _certify_groups_names()}
    weilbatch = _weilbatch_names()
    assert {
        ("frobsplit.intpoly", "IntPoly"),
        ("frobsplit.weil", "weil_validate"),
        ("frobsplit.weil", "analyze"),
        ("frobsplit.cli", "_default_aux_primes"),
    } <= weilbatch
    roots = [("frobsplit.cli", "main")] + sorted(bench | weilbatch)
    roots += [(module, name) for module, names in README_API.items() for name in names]
    reached, todo = set(), []

    def use(module, nodes):
        defs, imported, _ = scopes[module]
        for node in nodes:
            for name in (n.id for n in ast.walk(node) if isinstance(n, ast.Name)):
                target = (module, name) if name in defs else imported.get(name)
                if target is not None and target not in reached:
                    reached.add(target)
                    todo.append(target)

    for module, (_, _, rest) in scopes.items():
        use(module, rest)
    for root in roots:
        assert root[1] in scopes[root[0]][0], root  # every root is a definition
        reached.add(root)
        todo.append(root)
    while todo:
        module, name = todo.pop()
        node = scopes[module][0].get(name)
        if node is not None:
            use(module, [node])
    unreached = [
        f"{module}.{name}" for module, (defs, _, _) in scopes.items() for name in defs if (module, name) not in reached
    ]
    assert unreached == []
