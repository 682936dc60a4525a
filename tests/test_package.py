"""The package surface: layers load on first use, once, under one lock."""

import json
import os
import subprocess
import sys

import pytest

import kneading

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kneading.__file__)))


def _fresh(script: str, *argv: str, cwd=None, options=()) -> str:
    """stdout of ``script`` run in a fresh interpreter, started with the
    command-line ``options``, that imports this checkout of the package, in
    ``cwd`` if given."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *options, "-c", script, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


_RAN = """
import contextlib, io, sys
import kneading, kneading.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = kneading.cli.main(sys.argv[1:])
print(rc, *sorted(name for name in kneading._EXPORTS
                  if type(sys.modules["kneading." + name]) is not kneading._Layer))
"""


# each row names the layers a command runs; every exact layer imports words
# and so runs it too, while the float lab runs dynamics alone, whose record
# base is in kneading._base; the finite cascade values compile no stream code
@pytest.mark.parametrize("argv, ran", [
    ("dyn kneading --n 20", "dynamics"),
    ("dyn scan --steps 3", "dynamics"),
    ("dyn lemma1 --pairs 10 --n 10", "dynamics"),
    ("export bifurcation-scan --steps 3", "dynamics"),
    ("tau --j 3", "feigenbaum"),
    ("tau --infinity --bits 64", "feigenbaum symbolic"),
    ("lang complexity --tau 5/6 --nmax 6", "encoding language symbolic"),
    ("zeta --tau 5/6 --order 8 --counts --entropy", "encoding spectral symbolic"),
    ("cf tau-level --j 4", "cfrac feigenbaum"),
    ("cf table --jmax 3", "cfrac feigenbaum"),
    ("cf tau-infinity --bits 64", "cfrac feigenbaum symbolic"),
    ("freq --prefix 1024", "feigenbaum frequency symbolic"),
    ("export zeta-roots --j 2", ""),
    ("reproduce all", "cfrac encoding feigenbaum frequency spectral symbolic"),
])
def test_command_runs_only_its_layers(argv, ran):
    words = [] if not ran or ran == "dynamics" else ["words"]
    layers = sorted([*ran.split(), *words])
    assert _fresh(_RAN, *argv.split()).split() == ["0", *layers]


# each subcommand's argv, with the kneading.commands modules it needs: the
# spec parser _spec only where a --tau spec or a number is read, and the
# file writer _out only where --out names a file
_COMMAND_MODULES = [
    ("dyn kneading --n 20", "dyn"),
    ("dyn scan --steps 3", "dyn"),
    ("tau --j 3", "tau"),
    ("lang complexity --tau 5/6 --nmax 6", "_spec lang"),
    ("zeta --tau 5/6 --order 8 --counts --entropy", "_spec zeta"),
    ("cf tau-level --j 4", "cf"),
    ("freq --prefix 1024", "freq"),
    ("export zeta-roots --j 2", "export"),
    ("export bifurcation-scan --steps 3", "dyn export"),
    ("reproduce nj-sequence", "_spec reproduce"),
    # an option value that names another subcommand loads nothing
    ("export zeta-roots --j 2 --out dyn", "_out export"),
    ("cf table --jmax 3", "cf"),
    ("tau --infinity --bits 64", "tau"),
    ("dyn kneading --n 20 --out k.json", "_out dyn"),
    ("cf tau-infinity --bits 64", "cf"),
]

_COMMANDS_RAN = """
import contextlib, io, sys
import kneading.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = kneading.cli.main(sys.argv[1:])
print(rc, *sorted(name.rsplit(".", 1)[1] for name in sys.modules
                  if name.startswith("kneading.commands.")))
"""


# each runs in an empty directory, where --out may write
@pytest.mark.parametrize("argv, modules", _COMMAND_MODULES)
def test_command_loads_only_its_command_module(argv, modules, tmp_path):
    assert _fresh(_COMMANDS_RAN, *argv.split(), cwd=tmp_path).split() == [
        "0", *modules.split()]


# every command compiles what import kneading.cli runs, so it runs the
# package, the dispatcher and the shared helpers, and leaves the layers
# registered but unrun
_IMPORT_RAN = """
import sys
import kneading, kneading.cli
print(*sorted(name for name, module in sys.modules.items()
              if name.split(".")[0] == "kneading" and type(module) is not kneading._Layer))
"""


def test_import_cli_runs_only_the_shared_core():
    assert _fresh(_IMPORT_RAN).split() == ["kneading", "kneading.cli", "kneading.commands"]


# ``python -m kneading.cli`` runs cli.py as ``__main__``; a command module
# that imported ``kneading.cli`` would compile and run it a second time
_RUN_AS_MAIN = """
import contextlib, io, runpy, sys
sys.argv[0] = "kneading"
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("kneading.cli", run_name="__main__", alter_sys=True)
    except SystemExit as e:
        rc = e.code
print(rc, "kneading.cli" in sys.modules)
"""


@pytest.mark.parametrize("argv", [argv for argv, _ in _COMMAND_MODULES])
def test_cli_runs_once_as_main(argv, tmp_path):
    assert _fresh(_RUN_AS_MAIN, *argv.split(), cwd=tmp_path).split() == ["0", "False"]


# Start-up modules a command may not load: dataclasses and inspect (about
# 10 ms of imports) and json (JSON is written by kneading._jsontext) never;
# fractions only where exact numbers are computed, and csv only where a table
# is written.  The last field tells whether the output parses as JSON, which
# it must exactly when no --format is given, except for reproduce's report
# lines.  Modules the interpreter had already loaded before the package was
# imported do not count.
_LOADED = """
import contextlib, io, sys
before = set(sys.modules)
import kneading.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = kneading.cli.main(sys.argv[1:])
loaded = {"csv", "dataclasses", "fractions", "inspect", "json"} & set(sys.modules) - before
import json
try:
    json.loads(out.getvalue())
    printed_json = True
except ValueError:
    printed_json = False
print(rc, *sorted(loaded), printed_json)
"""


@pytest.mark.parametrize("argv, loaded", [
    ("dyn kneading --n 20", ""),
    ("dyn scan --steps 3", ""),
    ("dyn lemma1 --pairs 10 --n 10", ""),
    ("dyn scan --steps 3 --format csv", "csv"),
    ("tau --j 3", ""),
    ("tau --j 3 --format text", ""),
    ("cf tau-level --j 4", ""),
    ("cf table --jmax 3 --format csv", "csv"),
    ("zeta --tau 5/6 --order 8 --counts --entropy", "fractions"),
    ("lang complexity --tau 5/6 --nmax 6", "fractions"),
    ("freq --prefix 1024", "fractions"),
    ("export zeta-roots --j 2", ""),
    ("reproduce nj-sequence", ""),
])
def test_command_loads_no_idle_modules(argv, loaded):
    prints_json = "--format" not in argv and not argv.startswith("reproduce")
    assert _fresh(_LOADED, *argv.split()).split() == [
        "0", *loaded.split(), str(prints_json)]


_LOADED_BARE = """
import contextlib, io, sys
before = set(sys.modules)
import kneading.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = kneading.cli.main(sys.argv[1:])
print(rc, *sorted({"random", "typing"} & set(sys.modules) - before))
"""


# Under -S, with no site hooks (which may load both), the float lab's
# printing commands load neither typing (about 3 ms) nor random (about 1 ms):
# only lemma1 samples.
@pytest.mark.parametrize("argv", ["dyn kneading --n 20", "dyn scan --steps 3"])
def test_float_lab_loads_neither_typing_nor_random(argv):
    assert _fresh(_LOADED_BARE, *argv.split(), options=("-S",)).split() == ["0"]


_THREADS = """
import json, sys, threading
import kneading
from kneading import cfrac, feigenbaum
assert type(cfrac) is kneading._Layer
barrier = threading.Barrier(8)
got = []

def first_use():
    barrier.wait()
    try:
        got.append(cfrac.cf_of_rational(feigenbaum.tau_level(5).value).quotients)
    except Exception as e:
        got.append(repr(e))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_use) for _ in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
    assert not t.is_alive()
print(json.dumps(got))
"""


def test_first_use_from_many_threads():
    # every thread waits for the one that runs the layer, then finds it whole
    got = json.loads(_fresh(_THREADS))
    assert got == [[1, 4, 1, 2, 2, 6, 2, 1, 2, 9, 1, 2]] * 8


def test_exports_resolve_to_their_layer():
    assert set(kneading.__all__) <= set(dir(kneading))
    namespace = {}
    exec("from kneading import *", namespace)
    for layer, names in kneading._EXPORTS.items():
        module = sys.modules[f"kneading.{layer}"]
        for name in names:
            assert namespace[name] is getattr(module, name) is getattr(kneading, name)
        # _EXPORTS is the one list of public names: no layer keeps a second
        assert "__all__" not in vars(module), layer
    assert len(kneading.__all__) == 1 + sum(map(len, kneading._EXPORTS.values()))
    with pytest.raises(AttributeError):
        kneading.no_such_name


def test_public_annotations_resolve():
    # typing.get_type_hints (and doc tools) evaluate annotations in the
    # defining module: no public class, its fields included, and no public
    # function names a type bound only lazily
    import inspect
    import typing

    for layer, names in kneading._EXPORTS.items():
        module = sys.modules[f"kneading.{layer}"]
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                typing.get_type_hints(obj)
                funcs = [f for f in vars(obj).values() if inspect.isfunction(f)]
            else:
                funcs = [obj] if inspect.isfunction(obj) else []
            for f in funcs:
                typing.get_type_hints(f)


def test_stream_classes_live_in_symbolic():
    # every stream type, derived streams included, is one of symbolic's
    from kneading.symbolic import SymbolStream

    for layer in kneading._EXPORTS:
        vars(sys.modules[f"kneading.{layer}"])  # runs the layer
    found, todo = [], [SymbolStream]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    ours = [c for c in found if c.__module__.split(".")[0] == "kneading"]
    assert {c.__module__ for c in ours} == {"kneading.symbolic"}, ours


def test_oracles_stay_out_of_the_package():
    # the tests' independent constructions are not shipped: no public name
    # that tests/oracles.py defines is exported by, or bound in, a layer
    import ast

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in defined if not name.startswith("_")}
    assert public
    assert not public & set(kneading.__all__)
    for layer in kneading._EXPORTS:
        module = sys.modules[f"kneading.{layer}"]
        assert not {name for name in public if hasattr(module, name)}, layer


# Public names that no command reaches yet, each with the ROADMAP item that
# will call it.  A name leaves this table when its caller lands.
_AWAITING_CALLER = {
    "convergents": "D19",
    "Convergent": "D19",
    "stream_tau": "D22",
    "tau_of_periodic": "D22",
    "cf_of_rational": "D14 (timed by bench/caps.py)",
    "ContinuedFraction": "D14 (timed by bench/caps.py)",
    "language_words": "D15 (capped by WORD_LIMIT, timed by bench/caps.py)",
}


def _reached_names() -> set:
    """Every identifier that ``cli.py`` and the command modules reach through
    the layers' top-level definitions.

    A definition reaches each identifier in its body: names, attribute
    names and imported names.  Identifiers are matched by spelling, so a
    local that shares a public name's spelling counts as a reference.
    """
    import ast
    import glob

    package = os.path.dirname(os.path.abspath(kneading.__file__))

    def identifiers(node) -> set:
        out = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                out.add(n.id)
            elif isinstance(n, ast.Attribute):
                out.add(n.attr)
            elif isinstance(n, ast.alias):
                out.add(n.name)
        return out

    def parse(path):
        with open(path, encoding="utf-8") as f:
            return ast.parse(f.read())

    uses = {}    # top-level name of a layer -> identifiers its definition uses
    for layer in kneading._EXPORTS:
        for node in parse(os.path.join(package, f"{layer}.py")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.setdefault(node.name, set()).update(identifiers(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            uses.setdefault(n.id, set()).update(identifiers(node.value))
    todo = set()
    for path in [os.path.join(package, "cli.py"),
                 *glob.glob(os.path.join(package, "commands", "*.py"))]:
        todo |= identifiers(parse(path))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo |= uses.get(name, set())
    return reached


def test_every_public_name_has_a_caller():
    # the version string is package metadata, not code, so it needs no caller
    public = set(kneading.__all__) - {"__version__"}
    reached = _reached_names()
    waiting = set(_AWAITING_CALLER)
    assert sorted(public - reached - waiting) == [], "no caller and no ROADMAP item"
    assert sorted(waiting & reached) == [], "reached now: drop from _AWAITING_CALLER"
    assert sorted(waiting - public) == [], "no longer public: drop from _AWAITING_CALLER"


def test_console_script_and_python_floor():
    # pyproject.toml's console script is the CLI's main, and requires-python
    # names the oldest Python that the tier-1 workflow runs on
    import importlib
    import re
    import tomllib

    import kneading.cli

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        project = tomllib.load(f)["project"]
    module, _, name = project["scripts"]["kneading"].partition(":")
    assert getattr(importlib.import_module(module), name) is kneading.cli.main
    with open(os.path.join(root, ".github", "workflows", "tier1.yml"), encoding="utf-8") as f:
        matrix = re.search(r"python-version: \[(.*)\]", f.read()).group(1)
    floor = min(re.findall(r'"(3\.\d+)"', matrix), key=lambda v: int(v.split(".")[1]))
    assert floor == "3.11"
    assert project["requires-python"] == f">={floor}"
