"""The package invariant: no floating point and no runtime dependencies.

Every module of src/mzvfactor is parsed and searched for a float or complex
literal, a float() or complex() call, and a float-valued name of math.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mzvfactor").glob("*.py"))
FLOAT_MATH = {"sqrt", "pow", "fsum", "pi", "e", "tau", "inf", "nan"}


def _float_valued_math(name: str) -> bool:
    return name in FLOAT_MATH or name.startswith(("log", "exp"))


def float_uses(source: str) -> list[str]:
    """Each floating-point use in `source`, as 'line: what'."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{line}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            found.append(f"{line}: {node.func.id}()")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _float_valued_math(node.attr)):
            found.append(f"{line}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"{line}: math.{a.name}" for a in node.names
                      if _float_valued_math(a.name)]
    return found


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"numeric.py", "series.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_floating_point(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def test_the_search_finds_each_kind_of_float_use():
    source = ("import math\nfrom math import log2, isqrt\n"
              "a = 0.5\nb = 2j\nc = float(3)\nd = complex(1, 2)\n"
              "e = math.sqrt(2) + math.pi + math.isqrt(9) + math.log(3)\n")
    assert sorted(float_uses(source)) == [
        "2: math.log2", "3: literal 0.5", "4: literal 2j", "5: float()",
        "6: complex()", "7: math.log", "7: math.pi", "7: math.sqrt"]


def test_there_are_no_runtime_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    deps = re.search(r"^dependencies\s*=\s*\[([^\]]*)\]", project, re.M)
    assert deps is not None
    assert re.sub(r"#.*", "", deps.group(1)).strip() == ""
