"""The package surface: layers load on first use, once, under one lock."""

import json
import os
import subprocess
import sys

import pytest

import kneading

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(kneading.__file__)))


def _fresh(script: str, *argv: str) -> str:
    """stdout of ``script`` run in a fresh interpreter that imports this
    checkout of the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
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


@pytest.mark.parametrize("argv, ran", [
    ("dyn kneading --n 20", "dynamics symbolic"),
    ("dyn scan --steps 3", "dynamics symbolic"),
    ("tau --j 3", "encoding feigenbaum symbolic"),
    ("lang complexity --tau 5/6 --nmax 6", "encoding language symbolic"),
    ("zeta --tau 5/6 --order 8 --counts --entropy", "encoding spectral symbolic"),
    ("cf tau-level --j 4", "cfrac encoding feigenbaum symbolic"),
    ("freq --prefix 1024", "encoding feigenbaum frequency symbolic"),
    ("export zeta-roots --j 2", ""),
    ("reproduce all", "cfrac encoding feigenbaum frequency spectral symbolic"),
])
def test_command_runs_only_its_layers(argv, ran):
    assert _fresh(_RAN, *argv.split()).split() == ["0", *ran.split()]


# Start-up modules a command may not load: dataclasses and inspect (about
# 10 ms of imports) never; fractions only where exact numbers are computed,
# csv only where a table is written.  Modules the interpreter had already
# loaded before the package was imported do not count.
_LOADED = """
import contextlib, io, sys
before = set(sys.modules)
import kneading.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = kneading.cli.main(sys.argv[1:])
print(rc, *sorted({"csv", "dataclasses", "fractions", "inspect"} & set(sys.modules) - before))
"""


@pytest.mark.parametrize("argv, loaded", [
    ("dyn kneading --n 20", ""),
    ("dyn scan --steps 3", ""),
    ("dyn lemma1 --pairs 10 --n 10", ""),
    ("dyn scan --steps 3 --format csv", "csv"),
    ("tau --j 3", "fractions"),
    ("cf tau-level --j 4", "fractions"),
    ("zeta --tau 5/6 --order 8 --counts --entropy", "fractions"),
    ("lang complexity --tau 5/6 --nmax 6", "fractions"),
    ("freq --prefix 1024", "fractions"),
    ("export zeta-roots --j 2", ""),
    ("reproduce nj-sequence", "fractions"),
])
def test_command_loads_no_idle_modules(argv, loaded):
    assert _fresh(_LOADED, *argv.split()).split() == ["0", *loaded.split()]


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
    assert len(kneading.__all__) == 1 + sum(map(len, kneading._EXPORTS.values()))
    with pytest.raises(AttributeError):
        kneading.no_such_name


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
