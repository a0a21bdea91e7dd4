"""The library stays integer-exact and dependency-free: no float literal, no
true division, no float() call, and no import from outside the standard
library and the package, in any module under src/spinblocks.  Its memos are
a fixed, named set of module-level functools caches and *MEMO dicts,
every function in it has a caller in it or is public API, and no instance
is built past its class's __init__."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "spinblocks").glob("*.py"))


def inexact_nodes(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{where}: true division")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{where}: float() call")
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            found.extend(f"{where}: import {n}" for n in names if not _allowed(n))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if not _allowed(node.module):
                found.append(f"{where}: from {node.module} import")
    return found


def _allowed(module: str) -> bool:
    top = module.split(".")[0]
    return top == "spinblocks" or top in sys.stdlib_module_names


def test_modules_found():
    assert len(MODULES) > 1


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_is_exact(path):
    assert inexact_nodes(ast.parse(path.read_text(), filename=str(path))) == []


def test_checker_catches_each_kind():
    source = "import numpy\nfrom scipy import linalg\nx = 1.5\ny = 3 / 2\nz = float(1)\nw = 1\nw /= 2\n"
    assert len(inexact_nodes(ast.parse(source))) == 6


# A value built past its class's __init__ skips the checks there, such as
# Sqrt2Scalar's integer check.  No module reads a __dict__, so any reference
# counts: a write through an alias (state = x.__dict__; state["a"] = a) looks
# like a read.
def construction_back_doors(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            found.append(f"{where}: instance __dict__")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object"
        ):
            found.append(f"{where}: object.__new__ call")
    return found


def test_every_instance_is_built_by_its_init():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(f"{path.name} {where}" for where in construction_back_doors(tree))
    assert found == []


def test_back_door_checker_catches_each_kind():
    source = (
        "x = object.__new__(C)\n"
        "state = x.__dict__\n"
        "state['a'], state['b'] = 1, 2\n"
        "x.__dict__['a'] = 1\n"
        "y = C.__new__(C)\n"
        "z = C(1, 2)\n"
    )
    assert len(construction_back_doors(ast.parse(source))) == 3


def test_no_declared_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines


# The benchmark's reset between passes empties only module-level caches and
# module-level dicts whose names end in MEMO, and the README names these four;
# a cache anywhere else would run warm.  What one weight of `verify all`
# shares (moves, K products, branchings) lives in a `verify.Weight` that is
# dropped when the weight is done; quotients live in the `_block_by_sizes` split.
MEMOS = ["_block", "_block_by_sizes"]
DICT_MEMOS = ["CACHE_FILE_MEMO", "PATH_COUNT_MEMO"]
CACHE_NAMES = {"lru_cache", "cache"}


def functools_caches(tree: ast.Module) -> tuple[list, int]:
    """(function name, is module-level) for every function decorated with
    functools.lru_cache or functools.cache, and the number of other uses of
    those two names (a wrapper made by a call rather than a decorator)."""
    local = set()
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            local.update(a.asname or a.name for a in node.names if a.name in CACHE_NAMES)
        elif isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "functools")

    def is_cache(node) -> bool:
        if isinstance(node, ast.Name):
            return node.id in local
        return (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        )

    decorated = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if is_cache(dec.func if isinstance(dec, ast.Call) else dec):
                    decorated.append((node.name, node in tree.body))
    uses = sum(1 for node in ast.walk(tree) if is_cache(node))
    return decorated, uses - len(decorated)


def test_memos_are_the_named_module_level_caches():
    decorated, stray = [], 0
    for path in MODULES:
        found, extra = functools_caches(ast.parse(path.read_text(), filename=str(path)))
        decorated.extend(found)
        stray += extra
    assert stray == 0
    assert all(module_level for _, module_level in decorated)
    assert sorted(name for name, _ in decorated) == MEMOS


def module_level_names(tree: ast.Module) -> list[str]:
    """Every name a module-level statement binds by assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_memo_dicts_are_the_named_ones():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(name for name in module_level_names(tree) if name.endswith("MEMO"))
    assert sorted(found) == DICT_MEMOS


def test_memo_checker_catches_each_kind():
    source = (
        "import functools\nfrom functools import lru_cache as lc\n"
        "@lc(maxsize=None)\ndef top(x): return x\n"
        "@functools.cache\ndef other(x): return x\n"
        "class C:\n    @functools.lru_cache\n    def method(self): return 1\n"
        "def outer():\n    @lc\n    def inner(): return 1\n    return inner\n"
        "wrapped = functools.cache(len)\n"
    )
    decorated, stray = functools_caches(ast.parse(source))
    assert sorted(decorated) == [
        ("inner", False), ("method", False), ("other", True), ("top", True)
    ]
    assert stray == 1


# Runner j's epsilon exponent has one definition, `abacus.runner_parity`.  A
# module that derives it again from the partition `runner_label(p, j)`, or
# keeps a table of it, states the concept a second time.
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def runner_parity_restatements(tree: ast.AST) -> list[str]:
    """epsilon_exponent and parity calls with a runner_label call among
    their arguments, and runner-parity tables: a comprehension whose values are
    runner_parity calls, or a map of runner_parity, unless sum() takes it."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if _calls(node, "epsilon_exponent") or _calls(node, "parity"):
            if any(_calls(n, "runner_label") for arg in node.args for n in ast.walk(arg)):
                found.append(f"{where}: {node.func.id} of a runner_label")
            continue
        if isinstance(node, COMPREHENSIONS):
            values = node.value if isinstance(node, ast.DictComp) else node.elt
            table = _calls(values, "runner_parity")
        else:
            table = _calls(node, "map") and isinstance(node.args[0], ast.Name) and (
                node.args[0].id == "runner_parity"
            )
        if table and not _calls(parents.get(node), "sum"):
            found.append(f"{where}: a table of runner parities")
    return found


def test_runner_parity_has_one_definition_and_no_restatement():
    defined, found = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.extend(
            path.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "runner_parity"
        )
        found.extend(f"{path.name} {where}" for where in runner_parity_restatements(tree))
    assert defined == ["abacus.py"]
    assert found == []


def test_runner_parity_checker_catches_each_kind():
    source = (
        "a = epsilon_exponent((runner_label(p, j),))\n"
        "b = epsilon_exponent((mu, runner_label(p, j)))\n"
        "c = [epsilon_exponent((runner_label(p, i),)) for i in range(L + 1)]\n"
        "d = tuple(runner_parity(j) for j in range(L + 1))\n"
        "e = {j: runner_parity(j) for j in range(L + 1)}\n"
        "f = list(map(runner_parity, range(L + 1)))\n"
        "g = parity(runner_label(p, j))\n"
        "ok = sum(map(runner_parity, t)) + sum(runner_parity(j) * x for j, x in enumerate(c))\n"
        "ok = epsilon_exponent((mu,)) + runner_parity(j) + len(runner_label(p, j))\n"
        "ok = parity(mu) + runner_parity(j)\n"
    )
    assert len(runner_parity_restatements(ast.parse(source))) == 7


# Every function and method under src/spinblocks is referenced from src
# outside its own body, or exported in spinblocks.__all__; an oracle only the
# tests call lives with the tests.  Dunder methods are called by Python
# itself.  What stays public without a caller in src:
UNCALLED_ALLOWED = {
    # the echelon route: the benchmark's spans wrap row_echelon_basis and
    # lattice_member by name, and the tests cross-check the closed form with it
    "row_echelon_basis", "reduce_against", "lattice_member",
    # the one-call oracle solve: verify folds once and substitutes per target,
    # and the benchmark's spans wrap this name (a `--trace 1` run reads it)
    "integral_solution_exists",
    # CharVector's algebra
    "CharVector.scale", "CharVector.coefficient", "CharVector.support",
    # the vector wrappers of the pair-level membership tests that htoj reads
    "NmvLattice.member", "NmvLattice.member_oracle",
    # argparse calls it on every subcommand parser
    "_SubcommandParser.parse_known_args",
}


def uncalled_defs(trees: list, exported: set) -> list[str]:
    """Qualified names (Class.method) of the defs that nothing outside their
    own body refers to, less dunders and exported names.  A function is
    referred to by a Name or an Attribute, a method only by an Attribute: a
    bare name, such as a local variable, never reaches a method."""
    defs = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((f"{owner}.{child.name}" if owner else child.name, child))
                visit(child, None)
            else:
                visit(child, owner)

    names, attrs = {}, {}
    for tree in trees:
        visit(tree, None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append(node)
    uncalled = []
    for qualname, fn in defs:
        if (fn.name.startswith("__") and fn.name.endswith("__")) or qualname in exported:
            continue
        refs = attrs.get(fn.name, []) + ([] if "." in qualname else names.get(fn.name, []))
        inside = set(map(id, ast.walk(fn)))
        if all(id(node) in inside for node in refs):
            uncalled.append(qualname)
    return uncalled


def test_every_function_in_src_has_a_caller_or_is_public():
    import spinblocks

    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    assert set(uncalled_defs(trees, set(spinblocks.__all__))) - UNCALLED_ALLOWED == set()


def test_caller_checker_catches_an_unreferenced_def():
    import spinblocks

    source = (
        "def used(): return 1\n"
        "def recursive(n): return recursive(n - 1) if n else used()\n"
        "def exported(): pass\n"
        "class C:\n"
        "    def __len__(self): return 0\n"
        "    def method(self): return self.method\n"
        "    def called(self): return 2\n"
        "    def shadowed(self): return 3\n"
        "x = C().called()\n"
        "def caller(): shadowed = [used()]; return shadowed\n"
        "caller()\n"
    )
    assert uncalled_defs([ast.parse(source)], {"exported"}) == ["recursive", "C.method", "C.shadowed"]
    planted = MODULES[0].read_text() + "\n\ndef planted_helper():\n    return 0\n"
    trees = [ast.parse(planted)] + [ast.parse(path.read_text()) for path in MODULES[1:]]
    assert "planted_helper" in uncalled_defs(trees, set(spinblocks.__all__))


# Every name a module of src/spinblocks binds at module level is read somewhere
# in src, or exported; a constant only the tests read lives with the tests.
UNREAD_ALLOWED = {"__version__", "__all__"}


def unread_module_names(trees: list, exported: set) -> list[str]:
    """The module-level names that no Name load and no Attribute in the trees
    reads, less exported names; a later assignment is not a read."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        name for tree in trees for name in module_level_names(tree)
        if name not in read and name not in exported
    ]


def test_every_module_level_name_in_src_is_read_or_public():
    import spinblocks

    trees = [ast.parse(path.read_text(), filename=str(path)) for path in MODULES]
    assert set(unread_module_names(trees, set(spinblocks.__all__))) == UNREAD_ALLOWED


def test_unread_name_checker_catches_an_unread_constant():
    import spinblocks

    source = (
        "READ = 1\n"
        "BY_ATTRIBUTE: int = 2\n"
        "EXPORTED = 3\n"
        "first, (second, UNREAD) = READ, (4, 5)\n"
        "STORED = 6\n"
        "STORED += 7\n"
        "def f(module): return second + first + module.BY_ATTRIBUTE\n"
    )
    assert unread_module_names([ast.parse(source)], {"EXPORTED"}) == ["UNREAD", "STORED", "STORED"]
    planted = MODULES[0].read_text() + "\n\nPLANTED_CONSTANT = 0\n"
    trees = [ast.parse(planted)] + [ast.parse(path.read_text()) for path in MODULES[1:]]
    assert "PLANTED_CONSTANT" in unread_module_names(trees, set(spinblocks.__all__))
