"""In-process timings of the capped kernels, each with a digest of its result.

Run from the repository root:

    python3 bench/caps.py                                   # print the table
    python3 bench/caps.py --label change --out BENCH_13.json
    python3 bench/caps.py --src ../parent/src --label parent --out BENCH_13.json

ROWS holds one (name, callable, args) entry per capped input.  Each row runs
RUNS times in this process; the median wall time and the sha256 of the repr
of the last result are recorded, so a speed-up that changes the output shows
as a changed digest.  ``--src`` puts a source tree first on ``sys.path``, so
the same table times any checkout, for example the parent of a change.
``--out`` merges the rows into the ``caps`` block of a JSON file under
``--label``; once the block holds both ``parent`` and ``change`` it also
records whether every digest agrees.  The standard library is all it needs.
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


def zeta_counts(tau: str, order: int):
    """Zeta series and orbit counts, the work of ``zeta --counts``."""
    from kneading import spectral

    z = spectral.zeta_series(tau_stream(tau), order)
    return z, spectral.orbit_counts(z)


def determinant_zeta(tau: str, order: int):
    """Determinant and zeta series, the series of a ``zeta`` payload."""
    from kneading import spectral

    K = tau_stream(tau)
    return spectral.kneading_determinant(K, order), spectral.zeta_series(K, order)


def entropy(tau: str):
    """Certified entropy at the library's default order and tolerance."""
    from kneading import spectral

    return spectral.entropy(tau_stream(tau))


def lang(what: str, tau: str, nmax: int, mode: str):
    """``complexity`` or ``language_words`` of one language query."""
    from kneading import language

    return getattr(language, what)(language.LanguageQuery(tau_stream(tau), nmax, mode))


# (name, callable, args); --tau p/q is capped at q <= 2^20, zeta --order at
# 2048, lang complexity --nmax at 24 and language_words at 16
ROWS = [
    (f"tau stream {tau}", tau_stream, (tau,))
    for tau in ("10006/10007", "100002/100003", "1000002/1000003", "1048572/1048573")
] + [
    ("is_maximal 100002/100003", maximal, ("100002/100003",)),
    ("PeriodicStream 1011*40000 1011", periodic_stream, ("1011" * 40000, "1011")),
    ("zeta --counts 61/62 order 2048", zeta_counts, ("61/62", 2048)),
    ("zeta --counts 38/39 order 2048", zeta_counts, ("38/39", 2048)),
    ("zeta --counts feigenbaum:14 order 2048", zeta_counts, ("feigenbaum:14", 2048)),
    ("zeta --counts feigenbaum:inf order 2048", zeta_counts, ("feigenbaum:inf", 2048)),
    ("determinant + zeta 1001/4006 order 2048", determinant_zeta, ("1001/4006", 2048)),
    ("entropy 1018/1019", entropy, ("1018/1019",)),
] + [
    (f"lang complexity {tau} {mode} nmax 24", lang, ("complexity", tau, 24, mode))
    for tau in ("6/7", "1018/1019") for mode in ("core", "full-interval")
] + [
    ("language_words 6/7 full-interval nmax 16", lang,
     ("language_words", "6/7", 16, "full-interval")),
]


def _digest(result) -> str:
    # results may hold integers past the int-to-str digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = repr(result)
    finally:
        sys.set_int_max_str_digits(limit)
    return hashlib.sha256(text.encode()).hexdigest()


def measure(fn, args) -> dict:
    times = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return {"median_s": round(statistics.median(times), 4),
            "runs_s": [round(t, 4) for t in times],
            "sha256": _digest(result)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="source tree to import kneading from")
    ap.add_argument("--label", default="change", help="key of this run in the caps block")
    ap.add_argument("--out", help="JSON file whose caps block receives the rows")
    args = ap.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))

    rows = {}
    for name, fn, fn_args in ROWS:
        rows[name] = measure(fn, fn_args)
        print(f"{rows[name]['median_s']:8.4f} s  {rows[name]['sha256'][:16]}  {name}",
              flush=True)
    if not args.out:
        return 0
    record = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    caps = record.setdefault("caps", {})
    caps["source"] = (f"bench/caps.py: each row run {RUNS} times in one process, "
                      "median wall time and sha256 of the repr of the result")
    caps["python"] = platform.python_version()
    caps[args.label] = rows
    if "parent" in caps and "change" in caps:
        caps["digests_identical"] = all(
            caps["parent"].get(name, {}).get("sha256") == row["sha256"]
            for name, row in caps["change"].items())
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
