"""What each ``kneading`` command compiles at start-up, and what that costs.

Run with no options from anywhere; it measures the checkout it sits in:

    python3 bench/startup.py

For one command per mode, and for a bare ``import kneading.cli``, a fresh
interpreter (``-B``, so no bytecode is written) runs the command through
``cli.main`` in an empty directory and lists the package's source files whose
code ran.  With bytecode writes off, as in every perfbench child, each of
them is compiled from source in every process that runs the command.  Then
each listed file is compiled in this process with ``compile()``, RUNS times,
and the median is reported beside it, with each command's sum.  Printed as
one JSON object.  The standard library is all it needs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUNS = 200

# one command per mode; "" is a bare import kneading.cli, which every
# command pays
COMMANDS = (
    "",
    "tau --j 3",
    "tau --infinity --bits 64",
    "cf tau-level --j 4",
    "cf tau-infinity --bits 64",
    "cf table --jmax 3",
    "zeta --tau 5/6 --order 8 --counts",
    "lang complexity --tau 5/6 --nmax 6",
    "lang forbidden --tau 6/7 --nmax 4",
    "freq --prefix 1024",
    "dyn kneading --n 40",
    "dyn scan --steps 3",
    "dyn lemma1 --pairs 10 --n 10",
    "dyn kneading --n 20 --out k.json",
    "export zeta-roots --j 2",
    "export bifurcation-scan --steps 3",
    "export frequency-convergence --kmin 3 --kmax 6",
    "reproduce nj-sequence",
)

# run in the child: the package files whose code ran (a registered layer
# that no command touched has not run, and is not compiled)
_RAN = """
import contextlib, io, sys
import kneading, kneading.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        kneading.cli.main(sys.argv[1:])
print("\\n".join(sorted(m.__file__ for name, m in list(sys.modules.items())
                        if name.split(".")[0] == "kneading"
                        and type(m) is not kneading._Layer)))
"""


def compiled_files(argv: str) -> list[str]:
    """The package's source files, relative to ``src/kneading``, that a
    fresh interpreter runs for the command line ``argv``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run([sys.executable, "-B", "-c", _RAN, *argv.split()], env=env,
                              cwd=cwd, capture_output=True, text=True, check=True)
    package = os.path.join(SRC, "kneading")
    return [os.path.relpath(path, package) for path in done.stdout.split()]


def compile_ms(rel: str) -> float:
    """Median of RUNS in-process ``compile()`` calls on one source file, ms."""
    path = os.path.join(SRC, "kneading", rel)
    with open(path, encoding="utf-8") as f:
        source = f.read()
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 3)


def main() -> int:
    files = {argv: compiled_files(argv) for argv in COMMANDS}
    cost = {rel: compile_ms(rel) for rel in sorted({f for fs in files.values() for f in fs})}
    print(json.dumps({
        "python": sys.version.split()[0],
        "compile_ms": cost,
        "commands": {argv or "import kneading.cli": {
            "files": fs, "compile_ms": round(sum(cost[f] for f in fs), 3)}
            for argv, fs in files.items()},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
