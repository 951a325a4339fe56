"""Structure checks on the package source.

`dataset` is the one module that touches user files: it opens every input
(`read_text`, `read_records`, the CSV and PGM loaders) and writes every
output (`write_file`). Any other module that opened, read, wrote, removed
or renamed a file itself would bypass the one error ladder for unreadable
inputs and the one writer's replace-not-write-through rule.

No module calls `Generator.choice`: `growth.draw_subsets` reproduces its
per-node `m_try` draws with one bounded-integer call per tree and level, and
a second way of drawing them would consume the streams differently.

Every config declares each field's type and rule once, through
`config.spec`, and its `__post_init__` applies them with `config.check` (or
is `config.check`): the ten configs behind the CLI, `GrowConfig` and
`ForestConfig`, and the two model classes `TreeModel` and `ForestModel`,
which pass DataError as the error to raise.

No module keeps code that nothing reads: every top-level function, class and
assigned name is exported in `__all__` or read somewhere in the package, and
so is every private method and every method of a class outside `__all__`. A
search or check kept only as a test reference lives under `tests/`, as
`pernode_scan.py`, `pernode_grower.py` and `one_node.py` do.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import minimaxsplit
from minimaxsplit import ForestConfig, ForestModel, GrowConfig, TreeModel
from minimaxsplit.config import TYPED, check, spec
from minimaxsplit.experiments import EXPERIMENTS

SOURCE = Path(minimaxsplit.__file__).parent

# pathlib calls that read, write, remove or rename a file; `mkdir` is allowed
FILE_METHODS = {"open", "read_text", "read_bytes", "write_text", "write_bytes", "unlink",
                "replace", "rename"}


def file_calls(tree: ast.AST):
    """(line, name) of each file call in the module: builtin `open(...)` and
    the methods above. `replace` and `rename` count with exactly one argument,
    as `Path.replace(target)` takes, so `str.replace(old, new)` does not."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno, "open"
        elif isinstance(func, ast.Attribute) and func.attr in FILE_METHODS:
            if func.attr in ("replace", "rename") and len(node.args) + len(node.keywords) != 1:
                continue
            yield node.lineno, f".{func.attr}"


def test_only_dataset_touches_files():
    modules = sorted(SOURCE.glob("*.py"))
    assert SOURCE / "dataset.py" in modules
    found = [f"{path.name}:{line} calls {name}"
             for path in modules if path.name != "dataset.py"
             for line, name in file_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_check_sees_file_calls():
    """The walker flags each kind of call it guards, and none of the allowed
    ones."""
    flagged = [name for _, name in file_calls(ast.parse(
        "open(p)\np.open()\np.read_text()\np.read_bytes()\np.write_text(s)\n"
        "p.write_bytes(b)\np.unlink()\np.replace(q)\np.rename(q)\n"
        "p.mkdir()\nread_text(p)\ns.replace('a', 'b')\n"))]
    assert flagged == ["open", ".open", ".read_text", ".read_bytes", ".write_text",
                       ".write_bytes", ".unlink", ".replace", ".rename"]


def choice_calls(tree: ast.AST):
    """Line of each `.choice(...)` call in the module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choice"]


def test_no_module_calls_choice():
    found = [f"{path.name}:{line}" for path in sorted(SOURCE.glob("*.py"))
             for line in choice_calls(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    assert choice_calls(ast.parse("rng.choice(5, 2, replace=False)\nchoice(3)\n")) == [1]


def definitions(tree: ast.AST, exported=frozenset()):
    """(line, name) of each top-level function, class and assigned name of
    the module, and `Class.method` of each method (a function in a class
    body, a property too) that is private or whose class is not in
    `exported`. Dunder methods are Python's to call and are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield node.lineno, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))
                        and (item.name.startswith("_") or node.name not in exported)):
                    yield item.lineno, f"{node.name}.{item.name}"


def reads(tree: ast.AST):
    """Each name the module reads: as a loaded name, as an attribute or as
    an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def unread(modules, exported):
    """`module:line name` of each definition (see `definitions`) outside
    `__init__` that is neither exported nor read by any of the modules; a
    method counts as read when its name is read as an attribute or a name
    anywhere."""
    read = set(exported).union(*(reads(tree) for tree in modules.values()))
    return [f"{module}:{line} {name}" for module, tree in modules.items()
            if module != "__init__" for line, name in definitions(tree, set(exported))
            if name.rpartition(".")[2] not in read]


def test_no_module_keeps_unread_code():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SOURCE.glob("*.py"))}
    assert {"__init__", "splitting", "growth"} <= set(modules)
    assert unread(modules, minimaxsplit.__all__) == []


def test_the_check_sees_unread_code():
    """A planted function that nothing reads is flagged, as is an unread
    name of a tuple assignment; a call, an import, an attribute read, a
    read in another assignment and an export each keep a name."""
    planted = {
        "a": ast.parse("def used():\n    pass\n\ndef unused():\n    used()\n\n"
                       "class C:\n    pass\n\nX, _Y = 1, 2\nZ: int = X\nW = 0\n"),
        "b": ast.parse("from .a import C\nimport a\na.W\n"),
        "__init__": ast.parse("def init_only():\n    pass\n"),
    }
    assert unread(planted, exported={"Z"}) == ["a:4 unused", "a:10 _Y"]


def test_the_check_sees_unread_methods():
    """An unread private method is flagged, and so is an unread method or
    property of a class outside the exports; a public method of an exported
    class, a dunder method and a method read as an attribute are kept."""
    planted = {
        "a": ast.parse("class Out:\n"
                       "    def __init__(self):\n"
                       "        self._used()\n"
                       "    def _used(self):\n"
                       "        pass\n"
                       "    def _unused(self):\n"
                       "        pass\n"
                       "    @property\n"
                       "    def shown(self):\n"
                       "        pass\n"
                       "class In:\n"
                       "    def public(self):\n"
                       "        pass\n"
                       "    def _hidden(self):\n"
                       "        pass\n"),
        "b": ast.parse("from .a import Out\n"),
    }
    assert unread(planted, exported={"In"}) == ["a:6 Out._unused", "a:9 Out.shown",
                                                "a:14 In._hidden"]


CONFIGS = [cls for cls, _ in EXPERIMENTS.values()] + [GrowConfig, ForestConfig, TreeModel,
                                                     ForestModel]


def unchecked(classes):
    """`Class.field` of each field without a rule in its metadata, and
    `Class.__post_init__` of each config whose `__post_init__` neither is
    `check` nor calls `check(self)` or `check(self, <error>)`."""
    found = [f"{cls.__name__}.{f.name}" for cls in classes for f in dataclasses.fields(cls)
             if not callable(f.metadata.get("rule"))]
    return found + [f"{cls.__name__}.__post_init__" for cls in classes
                    if cls.__post_init__ is not check
                    and not re.search(r"\bcheck\(self[,)]", inspect.getsource(cls.__post_init__))]


def test_every_config_field_declares_its_rule():
    assert len(CONFIGS) == 14
    assert unchecked(CONFIGS) == []


@dataclasses.dataclass(frozen=True)
class _Planted:
    ruled: int = spec(TYPED, 0)
    bare: int = 0

    def __post_init__(self):
        pass


def test_the_check_sees_a_field_without_a_rule():
    assert unchecked([_Planted]) == ["_Planted.bare", "_Planted.__post_init__"]
