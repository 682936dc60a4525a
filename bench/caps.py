"""In-process timings of the capped kernels, each with a digest of its result.

Run from the repository root:

    python3 bench/caps.py                                   # print the table
    python3 bench/caps.py --label change --out BENCH_13.json
    python3 bench/caps.py --src ../parent/src --label parent --out BENCH_13.json

ROWS holds one (name, callable, args) entry per capped input.  Each row runs
RUNS times in this process; the median wall time, its quartiles and the
sha256 of the repr of the last result (of its ``to_json()`` where it has
one) are recorded, so a speed-up that
changes the output shows as a changed digest, and a row's spread shows
beside its median.  Before each run a fixed pure-integer loop (PROBE_N
steps) is timed; the median times REF_PROBE_S over the median of the row's
probes is recorded as the scaled median, as perfbench scales a command by
the median of the bare-interpreter probes around it; it is meant to cancel
a machine that runs slow for the length of a row.  ``--src`` puts a source
tree first on ``sys.path``, so the same table times any checkout, for
example the parent of a change.
A command row also records its exit code.
``--out`` merges the rows into the ``caps`` block of a JSON file under
``--label``; once the block holds both ``parent`` and ``change`` it also
records the rows the parent refused with exit 2 and the change runs to
exit 0 (``rows_newly_accepted``), every other row whose exit code or
digest differs (``rows_changed``), and whether there are none of those
(``digests_identical``).  The standard
library is all it needs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

RUNS = 5

# PROBE_N steps of the probe loop take REF_PROBE_S seconds (median of 300)
# on a 2-core Intel Xeon host with Python 3.11.7
PROBE_N = 200_000
REF_PROBE_S = 0.0217


def tau_stream(tau: str):
    """Kneading stream of a ``--tau`` argument (p/q, feigenbaum:j or
    feigenbaum:inf), built from the public API, so any checkout can run it."""
    from fractions import Fraction

    from kneading import feigenbaum_limit, feigenbaum_stream, kneading_from_tau

    if tau == "feigenbaum:inf":
        return feigenbaum_limit()
    if tau.startswith("feigenbaum:"):
        return feigenbaum_stream(int(tau.split(":", 1)[1]))
    return kneading_from_tau(Fraction(tau))


def maximal(tau: str):
    """``is_maximal`` of a ``--tau`` stream, the check in front of ``zeta
    --counts/--entropy`` and ``lang``; the row builds the stream too."""
    from kneading import is_maximal

    return is_maximal(tau_stream(tau))


def periodic_stream(preperiod: str, period: str):
    """Canonical form of an eventually periodic stream."""
    from kneading import PeriodicStream

    return PeriodicStream(preperiod, period)


def entropy(tau: str):
    """Certified entropy from the determinant at order 256 (the order
    ``entropy`` took by default before it read a determinant) and the
    default tolerance."""
    from kneading import spectral

    return spectral.entropy(spectral.kneading_determinant(tau_stream(tau), 256))


def lang(what: str, tau: str, nmax: int, mode: str):
    """``complexity`` or ``language_words`` of one language query."""
    from kneading import language

    return getattr(language, what)(language.LanguageQuery(tau_stream(tau), nmax, mode))


def block_frequencies(block: int, prefix: int):
    """``freq --block b --prefix N`` on the limit kneading stream, a uniform
    substitution's fixed point: its windows are counted by recursion on the
    prefix, of which only the first 128 symbols are built."""
    from kneading import empirical_frequencies, feigenbaum_limit

    return empirical_frequencies(feigenbaum_limit(), block, prefix)


def tau_infinity(bits: int):
    """``tau --infinity --bits b``: the enclosure and its JSON form."""
    from kneading import tau_infinity_enclosure

    return tau_infinity_enclosure(bits).to_json()


def tau_infinity_quotients(bits: int):
    """``cf tau-infinity --bits b``: the quotients certified by the enclosure."""
    from kneading import cf_of_enclosure, tau_infinity_enclosure

    return cf_of_enclosure(tau_infinity_enclosure(bits))


def tau_level_quotients(j: int):
    """The expansion of tau_j, the work of a ``cf table`` row past its cap
    of 12 levels."""
    from kneading import cf_of_rational, tau_level

    return cf_of_rational(tau_level(j).value)


def tau_infinity_enclosure(bits: int):
    """The enclosure alone, past the CLI's cap of 2^16 bits."""
    from kneading import tau_infinity_enclosure

    return tau_infinity_enclosure(bits)


def pair_letters():
    """Exact letter frequencies of the pair substitution."""
    from kneading import PAIR_RULE, letter_frequencies

    return letter_frequencies(PAIR_RULE)


def lemma1(pairs: int, n: int):
    """``dyn lemma1`` with its default map (logistic, r = 3.9) and seed."""
    from kneading import lemma1_validate, logistic_map

    return lemma1_validate(logistic_map(3.9), pairs, n, seed=0)


def scan(steps: int, n: int):
    """``dyn scan`` over its default grid, 3.5 to 4.0."""
    from kneading import monotonicity_scan

    return monotonicity_scan([3.5 + 0.5 * i / (steps - 1) for i in range(steps)], n)


def command(*argv):
    """One ``kneading`` command through ``cli.main`` in this process; the
    result is its exit code and stdout, so the digest covers what it prints."""
    import contextlib
    import io

    from kneading import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


# (name, callable, args); --tau p/q is capped at q <= 2^20 (entropy
# 4098/4099 certifies a symbol period of 2049, the entropy cap still
# wanted), lang complexity --nmax at 24, language_words at 16,
# freq --block at 64 and --prefix at 2^62 (the 2^22 rows are its old cap),
# dyn --n at 256 and --pairs and --steps at 4096, tau --infinity and
# cf tau-infinity --bits at 2^16 (cf_of_enclosure also at 2^17 and 2^18, the
# sizes a raised --bits cap would reach), cf table --jmax at 12; the command rows
# run the whole command at its cap: zeta --order at 2048 (series, and
# orbit counts from the determinant, digested as printed), tau --j at 20,
# cf tau-level --j at 12,
# export zeta-roots --j at 11, export frequency-convergence --kmax at 62
# (25, its old cap, kept beside it), lang forbidden --nmax at 4096 and
# zeta --entropy --tol at 1/10^100; freq --stream tau-inf --block 3
# --prefix 4194304 is the heaviest freq command of the cascade benchmark
# workload; dyn lemma1 at a tent slope just past 2, a map that is not closed,
# steps every orbit all n times at the caps
ROWS = [
    (f"tau stream {tau}", tau_stream, (tau,))
    for tau in ("10006/10007", "100002/100003", "1000002/1000003", "1048572/1048573")
] + [
    ("is_maximal 100002/100003", maximal, ("100002/100003",)),
    ("PeriodicStream 1011*40000 1011", periodic_stream, ("1011" * 40000, "1011")),
    ("entropy 1018/1019", entropy, ("1018/1019",)),
    ("entropy 4098/4099", entropy, ("4098/4099",)),
] + [
    (f"lang complexity {tau} {mode} nmax 24", lang, ("complexity", tau, 24, mode))
    for tau in ("6/7", "1018/1019") for mode in ("core", "full-interval")
] + [
    ("language_words 6/7 full-interval nmax 16", lang,
     ("language_words", "6/7", 16, "full-interval")),
    ("freq feigenbaum block 8 prefix 2^22", block_frequencies, (8, 1 << 22)),
    ("freq feigenbaum block 64 prefix 2^22", block_frequencies, (64, 1 << 22)),
    ("letter_frequencies PAIR_RULE", pair_letters, ()),
    ("dyn lemma1 pairs 4096 n 256", lemma1, (4096, 256)),
    ("dyn scan steps 4096 n 256", scan, (4096, 256)),
    ("tau --infinity bits 65536", tau_infinity, (1 << 16,)),
    ("cf tau-infinity bits 65536", tau_infinity_quotients, (1 << 16,)),
    ("tau_infinity_enclosure bits 2^18", tau_infinity_enclosure, (1 << 18,)),
    ("cf_of_enclosure bits 2^17", tau_infinity_quotients, (1 << 17,)),
    ("cf_of_enclosure bits 2^18", tau_infinity_quotients, (1 << 18,)),
] + [
    (f"cf_of_rational tau_level {j}", tau_level_quotients, (j,)) for j in (16, 17, 18)
] + [
    # the name is the command line, with --tol's 1/10^100 written out in full
    (line, command, tuple(line.replace("10^100", str(10 ** 100)).split())) for line in (
        "zeta --tau 61/62 --order 2048 --counts",
        "zeta --tau 38/39 --order 2048 --counts",
        "zeta --tau feigenbaum:14 --order 2048 --counts",
        "zeta --tau feigenbaum:inf --order 2048 --counts",
        "zeta --tau 1001/4006 --order 2048",
        "tau --j 20",
        "cf tau-level --j 12",
        "cf table --jmax 12",
        "export zeta-roots --j 11",
        "export frequency-convergence --kmax 25",
        "export frequency-convergence --kmax 62",
        "freq --stream tau-inf --block 3 --prefix 4194304",
        "freq --block 64 --prefix 4611686018427387904",
        "lang forbidden --tau feigenbaum:inf --nmax 4096",
        "zeta --tau feigenbaum:inf --order 2048 --entropy --tol 1/10^100",
        "zeta --tau feigenbaum:14 --entropy",
        "dyn lemma1 --family tent --slope 2.000000000001 --pairs 4096 --n 256",
    )
]


def _digest(result) -> str:
    # a record with a JSON form is digested by it, as the CLI prints it, so
    # a record whose fields change but whose output does not keeps its
    # digest; results may hold integers past the int-to-str digit limit
    if hasattr(result, "to_json"):
        result = result.to_json()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = repr(result)
    finally:
        sys.set_int_max_str_digits(limit)
    return hashlib.sha256(text.encode()).hexdigest()


def probe() -> float:
    """Wall time of PROBE_N steps of a fixed integer recurrence."""
    t0 = time.perf_counter()
    x = 0
    for i in range(PROBE_N):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


def measure(fn, args) -> dict:
    times, probes = [], []
    for _ in range(RUNS):
        probes.append(probe())
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    scaled = median * REF_PROBE_S / statistics.median(probes)
    row = {"median_s": round(median, 4), "q1_s": round(q1, 4), "q3_s": round(q3, 4),
           "scaled_median_s": round(scaled, 4),
           "runs_s": [round(t, 4) for t in times],
           "sha256": _digest(result)}
    if fn is command:
        row["exit"] = result[0]
    return row


def compare(parent: dict, change: dict) -> dict:
    """How the change's rows differ from the parent's, row by row.  Only
    rows that both ran to the same exit code are compared by digest (a row
    without an exit code is a library call, compared always); a row that
    the parent refused with exit 2 and the change runs to exit 0 is newly
    accepted, any other changed exit code or digest is changed, and the
    digests are identical when no row changed."""
    changed, accepted = [], []
    for name, row in change.items():
        old = parent.get(name)
        if old is None:
            continue
        if old.get("exit") == 2 and row.get("exit") == 0:
            accepted.append(name)
        elif old.get("exit") != row.get("exit") or old["sha256"] != row["sha256"]:
            changed.append(name)
    return {"digests_identical": not changed, "rows_changed": changed,
            "rows_newly_accepted": accepted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="source tree to import kneading from")
    ap.add_argument("--label", default="change", help="key of this run in the caps block")
    ap.add_argument("--out", help="JSON file whose caps block receives the rows")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    rows = {}
    for name, fn, fn_args in ROWS:
        rows[name] = row = measure(fn, fn_args)
        print(f"{row['median_s']:8.4f} s [{row['q1_s']:.4f}, {row['q3_s']:.4f}] "
              f"scaled {row['scaled_median_s']:8.4f} s  {row['sha256'][:16]}  {name}",
              flush=True)
    if not args.out:
        return 0
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    caps = record.setdefault("caps", {})
    caps["source"] = (f"bench/caps.py: each row run {RUNS} times in one process, "
                      "median wall time with its quartiles (q1_s, q3_s), that "
                      "median scaled by the median of the row's probe loops "
                      "(scaled_median_s) and "
                      "sha256 of the repr of the result")
    caps["python"] = platform.python_version()
    caps[args.label] = rows
    if "parent" in caps and "change" in caps:
        caps.update(compare(caps["parent"], caps["change"]))
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
