"""Structure checks on the package source.

`dataset` is the one module that touches user files: it opens every input
(`read_text`, `read_records`, the CSV and PGM loaders) and writes every
output (`write_file`). Any other module that opened, read, wrote, removed
or renamed a file itself would bypass the one error ladder for unreadable
inputs and the one writer's replace-not-write-through rule.

No module calls `Generator.choice`: `growth.draw_subsets` reproduces its
per-node `m_try` draws with one bounded-integer call per tree and level, and
a second way of drawing them would consume the streams differently.
"""

import ast
from pathlib import Path

import minimaxsplit

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
