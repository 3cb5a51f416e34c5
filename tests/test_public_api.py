"""Every public name of the package has a caller outside the tests, and
every call signature the README quotes is the code's.

A module-level function or class of src/tvasr, or a method of such a class,
counts as used when its name appears as a whole word in another line of the
package (not `__init__.py`, whose re-exports are not uses, and not a line
that defines the name), in the benchmark scripts, in the README or in
pyproject.toml.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tvasr"


def public_names():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield f"{path.name}:{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{path.name}:{node.name}.{item.name}", item.name


def test_every_public_name_has_a_caller_outside_the_tests():
    package_lines = [line for path in sorted(SRC.glob("*.py"))
                     if path.name != "__init__.py"
                     for line in path.read_text().splitlines()]
    elsewhere = [path.read_text() for path in
                 sorted((ROOT / "benchmarks").glob("*.py"))
                 + [ROOT / "README.md", ROOT / "pyproject.toml"]]
    unused = []
    for qualname, name in public_names():
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"\s*(def|class)\s+{name}\b")
        if not (any(word.search(line) and not definition.match(line)
                    for line in package_lines)
                or any(word.search(text) for text in elsewhere)):
            unused.append(qualname)
    assert unused == []


def test_readme_signatures_list_the_code_parameters():
    """A quoted `name(a, b=...)` of a tvasr function names its parameters."""
    functions = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"tvasr.{path.stem}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                functions.setdefault(name, []).append(fn)
    text = (ROOT / "README.md").read_text()
    checked, wrong = [], []
    for name, params in re.findall(r"`(?:\w+\.)*(\w+)\(([^`()]*)\)`", text):
        if name not in functions:
            continue
        quoted = [p.split("=")[0].strip() for p in params.split(",")
                  if p.strip()]
        for fn in functions[name]:
            checked.append(name)
            if quoted != list(inspect.signature(fn).parameters):
                wrong.append(f"{name}({params})")
    assert checked and wrong == []
