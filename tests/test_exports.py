"""Every name a module exports in __all__ exists; imports load only what runs;
no module outside estimators/ branches on a method name; no module reads the
environment."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "eiv_lpe",
    "eiv_lpe.estimators",
    "eiv_lpe.estimators.config",
    "eiv_lpe.estimators.egle",
    "eiv_lpe.estimators.itl",
    "eiv_lpe.estimators.tls",
    "eiv_lpe.line_model",
    "eiv_lpe.noise",
    "eiv_lpe.scenario",
    "eiv_lpe.io",
    "eiv_lpe.bench",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


# What importing the config reader, the CLI or the bench harness must not
# load: the bench harness for the reader, `generate` and `estimate`, the
# stdlib's XML/HTTP stack that xml.sax pulls in, and the process pool, which
# only `--jobs` > 1 needs.
NOT_LOADED = [
    "eiv_lpe.bench", "xml.sax", "urllib.request", "http.client", "ssl", "email",
    "multiprocessing", "concurrent.futures.process",
]
_IMPORT_PROBE = """
import json, sys
NOT_LOADED = json.loads(sys.argv[1])
loaded = {}
for module in ("eiv_lpe.io", "eiv_lpe.cli", "eiv_lpe.bench"):
    __import__(module)
    loaded[module] = [name for name in NOT_LOADED if name in sys.modules]
print(json.dumps(loaded))
"""


def test_cli_and_bench_imports_load_only_what_they_run():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(NOT_LOADED)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded["eiv_lpe.io"] == []
    assert loaded["eiv_lpe.cli"] == []
    assert loaded["eiv_lpe.bench"] == ["eiv_lpe.bench"]


# Estimators decide for themselves what a method needs (its problem, its
# start); no other module picks a behaviour by comparing a method name.
METHOD_NAMES = {"tls", "mtee", "mtc", "cmtc", "egle"}


def _method_literals(node):
    if isinstance(node, ast.Constant):
        return {node.value} & METHOD_NAMES if isinstance(node.value, str) else set()
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*(_method_literals(elt) for elt in node.elts))
    return set()


def method_name_comparisons(source: str) -> list[int]:
    """Line numbers of the comparisons in `source` against a method-name literal."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and any(_method_literals(side) for side in [node.left, *node.comparators])
    )


def test_method_name_comparisons_are_found():
    source = 'if a == "tls" or "mtc" != b or m in ("x", "egle") or c == "y": pass\n'
    assert method_name_comparisons(source) == [1, 1, 1]
    assert method_name_comparisons('x = {"tls": 1}\nif m in ["a"]: pass\n') == []


def test_no_module_outside_estimators_compares_method_names():
    package = Path(__file__).resolve().parents[1] / "src" / "eiv_lpe"
    found = {
        f"{path.name}:{line}"
        for path in package.glob("*.py")
        for line in method_name_comparisons(path.read_text())
    }
    assert not found, f"method-name comparisons outside estimators/: {sorted(found)}"


# Options reach the package as arguments only; no module reads an
# environment variable for a second way to set one.
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _reads_environment(node) -> bool:
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "os" and node.attr in ENV_NAMES
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(alias.name in ENV_NAMES for alias in node.names)
    return False


def environment_reads(source: str) -> list[int]:
    """Line numbers of the os.environ / os.getenv uses and imports in `source`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if _reads_environment(node))


def test_environment_reads_are_found():
    source = 'import os\na = os.environ["A"]\nb = os.getenv("B")\nfrom os import environ\n'
    assert environment_reads(source) == [2, 3, 4]
    assert environment_reads("import os\nx = os.path.join('a', 'b')\n") == []


def test_no_module_reads_the_environment():
    package = Path(__file__).resolve().parents[1] / "src" / "eiv_lpe"
    found = {
        f"{path.relative_to(package)}:{line}"
        for path in package.rglob("*.py")
        for line in environment_reads(path.read_text())
    }
    assert not found, f"environment reads under src/eiv_lpe: {sorted(found)}"


# Every file the package writes is created new by io.open_new, which
# unlinks what the path names first: no output is truncated in place and
# no symlink at an output path is followed.
_WRITE_MODES = set("wax+")


def _writes_a_file(node) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "shutil" and name.startswith("copy"):
            return True
    if name != "open":
        return False
    # open(path, mode) and Path.open(mode)
    modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
    modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(
        isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        and _WRITE_MODES & set(mode.value)
        for mode in modes
    )


def file_writes(source: str, allowed: str = "") -> list[int]:
    """Line numbers of the calls in `source` that open, write or copy to a file,
    and of the `from shutil import copy...` imports, outside function `allowed`."""
    tree = ast.parse(source)
    exempt = {
        id(node)
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name == allowed
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if id(node) not in exempt
        and (
            _writes_a_file(node)
            or isinstance(node, ast.ImportFrom) and node.module == "shutil"
            and any(alias.name.startswith("copy") for alias in node.names)
        )
    )


def test_file_writes_are_found():
    source = (
        'open(p, "w")\nopen(p, mode="wb")\np.open("a")\np.write_text("x")\n'
        'p.write_bytes(b"")\nshutil.copyfile(a, b)\nfrom shutil import copy2\n'
        'def open_new(path):\n    return open(path, "w")\n'
    )
    assert file_writes(source) == [1, 2, 3, 4, 5, 6, 7, 9]
    assert file_writes(source, allowed="open_new") == [1, 2, 3, 4, 5, 6, 7]
    reads = 'open(p)\nopen(p, newline="")\np.open()\nopen(p, "rb")\nshutil.rmtree(d)\n'
    assert file_writes(reads) == []


def test_no_module_writes_a_file_outside_open_new():
    package = Path(__file__).resolve().parents[1] / "src" / "eiv_lpe"
    found = {
        f"{path.relative_to(package)}:{line}"
        for path in package.rglob("*.py")
        for line in file_writes(path.read_text(), "open_new" if path.name == "io.py" else "")
    }
    assert not found, f"file writes outside io.open_new: {sorted(found)}"
