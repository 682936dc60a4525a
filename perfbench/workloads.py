"""Seeded command lists for the three benchmark workloads.

``generate(workload, seed)`` returns one *round*: a list of argv lists for the
``kneading`` CLI.  The same (workload, seed) always gives the same list.  An
argv element of the form ``@OUT/<name>`` is an output file; the runner points
it into a temporary directory.

Every round has the same composition for every seed: a fixed number of each
command kind, with inputs drawn from the command's documented range.  Where an
input sets most of a command's cost, it is drawn from a narrow band near the
top of the range, or in pairs mirrored about the band's centre, so that one
round costs about the same whatever the seed.  Cheap commands, which mostly
measure process start-up, take inputs from their whole range.

Workloads, and why each was chosen:

cascade
    Exact cascade tables built from long words: parity and digit kernels,
    fixed-point prefixes, per-index tau_infinity digits, cf_of_enclosure and
    the Fraction gcd inside tau_level.  Time goes to feigenbaum, cfrac,
    frequency, symbolic and encoding; none to language or dynamics.  Peak
    memory lives here.
subshift
    Zeta series and entropy from kneading determinants, and language counts:
    the word-enumerating DFS and the Fraction ``log`` behind orbit counts.
    encoding only sees short periodic words.
orbit-lab
    Float dynamics mixed with many quick exact queries.  Process start-up,
    argparse, output emission and float loops dominate, and the parity kernel
    runs on many 16-64 symbol words instead of a few long ones.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import reference as ref

WORKLOADS = ("cascade", "subshift", "orbit-lab")

# Documented inputs that fail at the baseline: levels 15..20 and enclosures
# past ~14284 bits print integers over the 4300-digit str limit (exit 2).
TAU_J_FAILING = range(15, 21)
STR_LIMIT_BITS = (14300, 16384)

# --tau arguments: p/q with q <= 65.  Only maximal tau are valid for `lang`
# and `zeta --counts`; maximality is decided by the benchmark's own exact
# tent-orbit check, never by the package.
_MAX_Q = 65


def _fractions():
    for q in range(1, _MAX_Q + 1):
        for p in range(1, q + 1):
            if math.gcd(p, q) == 1:
                yield Fraction(p, q)


def _float_entropy(spec: str) -> float:
    """-log of the smallest root in (0, 1) of the determinant, by float bisection."""
    ts = ref.TauStream(spec)

    def d(x: float) -> float:
        return ref.determinant_value(ts, x)

    prev = 0.0
    for x in (k / 64 for k in range(1, 64)):
        if d(x) <= 0:
            lo, hi = prev, x
            for _ in range(40):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if d(mid) > 0 else (lo, mid)
            return -math.log(hi)
        prev = x
    return 0.0


@functools.cache
def pools() -> dict:
    """--tau argument pools, split by the benchmark's own checks."""
    maximal = [str(x) for x in _fractions() if ref.is_maximal(x)]
    zero = [s for s in maximal if ref.is_cascade_level(s)] + ["212/257"]
    entropy = {s: _float_entropy(s) for s in maximal if s not in zero}
    return {
        "any": [str(x) for x in _fractions()],
        "positive": sorted(entropy, key=entropy.get),
        "entropy": entropy,
        "zero": zero + [f"feigenbaum:{j}" for j in range(1, 9)],
        "maximal": maximal + [f"feigenbaum:{j}" for j in range(1, 9)]
        + ["feigenbaum:inf"],
    }


def _mirrored(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    """Two values in [lo, hi] with a fixed sum: their linear costs add up the same."""
    a = rng.randint(lo, hi)
    return a, lo + hi - a


def _fmt(rng: random.Random, *choices: str) -> list[str]:
    f = rng.choice(choices)
    return [] if f == "json" else ["--format", f]


def _cascade(rng: random.Random) -> list[list[str]]:
    cmds = []
    for j in rng.sample(range(1, 15), 6):
        cmds.append(["tau", "--j", str(j)] + _fmt(rng, "json", "text")
                    + (["--float"] if rng.random() < 0.3 else []))
    cmds += [["tau", "--j", str(j)] for j in TAU_J_FAILING]
    for lo, hi in ((256, 2047), (2048, 8191), (8192, 14000)):
        cmds.append(["tau", "--infinity", "--bits", str(rng.randint(lo, hi))])
    cmds.append(["tau", "--infinity", "--bits", str(rng.randint(*STR_LIMIT_BITS))])
    for j in rng.sample(range(1, 13), 4):
        cmds.append(["cf", "tau-level", "--j", str(j)] + _fmt(rng, "json", "text"))
    a, b = _mirrored(rng, 256, 16384)
    for bits in (a, b, rng.randint(256, 4096)):
        cmds.append(["cf", "tau-infinity", "--bits", str(bits)])
    for i, jmax in enumerate(rng.sample(range(1, 13), 2)):
        fmt = rng.choice(("json", "csv"))
        out = ["--out", f"@OUT/cf-table-{i}.{fmt}"] if rng.random() < 0.5 else []
        cmds.append(["cf", "table", "--jmax", str(jmax)]
                    + ([] if fmt == "json" else ["--format", fmt]) + out)
    # six scans of one cost (the parity stream costs ~1.6x per symbol), so the
    # round's tail latency falls among like commands
    for stream in ("feigenbaum", "thue-morse", "tau-inf") * 2:
        lo = 5 << 14 if stream == "tau-inf" else 1 << 17
        cmds.append(_freq(rng, stream, rng.randint(lo, lo + (lo >> 2)), False))
    # the tau-inf stream at the top of the documented prefix range sets the
    # round's peak memory, so it is always present
    cmds.append(_freq(rng, "tau-inf", 1 << 22, False))
    a, b = _mirrored(rng, 1 << 18, 1 << 20)
    cmds.append(_freq(rng, "feigenbaum", a, rng.random() < 0.5))
    cmds.append(_freq(rng, "thue-morse", b, rng.random() < 0.5))
    kmin = rng.randint(4, 16)
    cmds.append(["export", "frequency-convergence", "--kmin", str(kmin),
                 "--kmax", "19", "--out", "@OUT/conv.csv"]
                + _fmt(rng, "csv", "json"))
    cmds.append(["reproduce", "all", "--out", "@OUT/repro/"])
    return cmds


def _freq(rng, stream, prefix, aligned):
    return (["freq", "--stream", stream, "--block", str(rng.randint(1, 3)),
             "--prefix", str(prefix)] + (["--aligned"] if aligned else []))


def _zeta(spec, order, *flags):
    return ["zeta", "--tau", spec, "--order", str(order), *flags]


def _subshift(rng: random.Random) -> list[list[str]]:
    pool = pools()
    pos = pool["positive"]
    cmds = []
    # heavy series with orbit counts: their cost grows faster than the order
    # squared and with entropy (coefficient size), so order and tau come from
    # narrow bands
    steep = [s for s in pos if pool["entropy"][s] > 0.64]
    for _ in range(2):
        cmds.append(_zeta(rng.choice(steep), rng.randint(740, 760), "--counts"))
    cmds.append(_zeta(rng.choice(["feigenbaum:inf"] + [f"feigenbaum:{j}" for j in range(3, 9)]),
                      rng.randint(660, 680), "--counts"))
    # seven series of one size: the round's tail latency falls among them
    for _ in range(7):
        cmds.append(_zeta(rng.choice(steep), rng.randint(190, 210), "--counts", "--entropy"))
    for _ in range(4):
        cmds.append(_zeta(rng.choice(pos), rng.randint(32, 200), "--entropy"))
    # zero-entropy tau with --entropy: documented input, exit 3 at baseline
    for spec in rng.sample(pool["zero"], 2):
        cmds.append(_zeta(spec, rng.randint(32, 400), "--entropy"))
    for _ in range(6):
        spec = rng.choice(pool["any"] + ["feigenbaum:inf", "feigenbaum:6"])
        cmds.append(_zeta(spec, rng.randint(32, 400)))
    # heavy language counts: p_n grows like exp(h n), so for each nmax tau is
    # drawn from those whose entropy h (the benchmark's own estimate) puts
    # h * nmax near log(2^17); every heavy count then lists about as many words
    for mode in ("core", "full-interval", "core", "full-interval"):
        nmax = rng.randint(18, 22)
        spec = rng.choice([s for s in pos
                           if abs(pool["entropy"][s] * nmax - 17 * math.log(2)) < 0.3])
        cmds.append(["lang", "complexity", "--tau", spec, "--nmax", str(nmax),
                     "--mode", mode] + _fmt(rng, "json", "csv"))
    for _ in range(4):
        spec = rng.choice(pool["maximal"])
        # the largest nmax <= 24 whose ~exp(h n) word count stays within 2^12
        h = pool["entropy"].get(spec, 0.0)
        nmax = max(1, min(24, int(12 * math.log(2) / h))) if h > 0 else 24
        cmds.append(["lang", "complexity", "--tau", spec, "--nmax",
                     str(rng.randint(min(8, nmax), nmax)),
                     "--mode", rng.choice(("core", "full-interval"))])
    for _ in range(4):
        cmds.append(["lang", "forbidden", "--tau", rng.choice(pool["maximal"]),
                     "--nmax", str(rng.randint(8, 24))])
    return cmds


def _orbit_lab(rng: random.Random) -> list[list[str]]:
    pool = pools()
    cmds = []
    # sixteen float commands of one size (orbit steps times symbols fixed),
    # so the tail latency falls inside a group of like commands
    for family in ("logistic", "tent") * 3:
        n = rng.randint(16, 64)
        cmds.append(["dyn", "lemma1", "--family", family, *_dyn_parameter(rng, family),
                     "--pairs", str(40000 // n), "--n", str(n),
                     "--seed", str(rng.randint(0, 10 ** 6))])
    for i in range(10):
        n = rng.randint(16, 64)
        grid = ["--from", str(round(rng.uniform(3.5, 3.9), 4)), "--to", "4.0",
                "--steps", str(40000 // n), "--n", str(n)]
        if i < 6:
            cmds.append(["dyn", "scan", *grid] + _fmt(rng, "json", "csv"))
        else:
            cmds.append(["export", "bifurcation-scan", *grid, "--out", f"@OUT/scan-{i}"]
                        + _fmt(rng, "csv", "json"))
    for _ in range(6):
        family = rng.choice(("logistic", "tent"))
        cmds.append(["dyn", "kneading", "--family", family,
                     *_dyn_parameter(rng, family), "--n", str(rng.randint(16, 64))])
    for _ in range(6):
        cmds.append(["tau", "--j", str(rng.randint(1, 6))] + _fmt(rng, "json", "text"))
    for _ in range(4):
        cmds.append(["cf", "tau-level", "--j", str(rng.randint(1, 6))]
                    + _fmt(rng, "json", "text"))
    for _ in range(2):
        cmds.append(_zeta(rng.choice(pool["any"]), rng.randint(4, 16)))
    for _ in range(2):
        cmds.append(_zeta(rng.choice(pool["maximal"]), rng.randint(4, 16), "--counts"))
    for _ in range(2):
        cmds.append(_zeta(rng.choice(pool["positive"]), rng.randint(8, 16), "--entropy"))
    # zero-entropy tau with --entropy: documented input, exit 3 at baseline
    for spec in rng.sample(pool["zero"], 2):
        cmds.append(_zeta(spec, rng.randint(4, 16), "--entropy"))
    for what in ("complexity", "forbidden") * 2:
        cmds.append(["lang", what, "--tau", rng.choice(pool["maximal"]),
                     "--nmax", str(rng.randint(2, 8))])
    return cmds


def _dyn_parameter(rng: random.Random, family: str) -> list[str]:
    if family == "logistic":
        return ["--r", str(round(rng.uniform(3.5, 4.0), 6))]
    # slope in (1, 2]
    return ["--slope", str(round(2.0 - rng.uniform(0.0, 0.999), 6))]


_GENERATORS = {"cascade": _cascade, "subshift": _subshift, "orbit-lab": _orbit_lab}


def generate(workload: str, seed: int) -> list[list[str]]:
    """One round of argv lists for ``workload``; deterministic in ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    cmds = _GENERATORS[workload](rng)
    rng.shuffle(cmds)
    return cmds
