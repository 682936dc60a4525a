"""Command-line surface: exact tables, series, scans, and reproduction checks."""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from typing import NamedTuple

# the layers load on first use (see the package docstring), so each command
# runs only the ones it touches
from . import cfrac, dynamics, encoding, feigenbaum, frequency, language, spectral, symbolic


class _Result(NamedTuple):
    """What a handler returns: a JSON payload, an optional CSV table
    (header, rows), an optional text line, and the exit code."""
    payload: object
    table: tuple | None = None
    text: str | None = None
    code: int = 0


def _num(x, args):
    """Exact string for a Fraction unless --float was passed."""
    from fractions import Fraction
    if isinstance(x, Fraction):
        return float(x) if args.as_float else str(x)
    return x


def _emit(args, res: _Result) -> int:
    """The one output rule: --format text prints the text line if there is
    one; any format other than json prints the CSV table if there is one;
    everything else prints JSON.  --out writes the file atomically."""
    if args.format == "text" and res.text is not None:
        text = res.text + "\n"
    elif args.format != "json" and res.table is not None:
        import csv
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(res.table[0])
        w.writerows(res.table[1])
        text = buf.getvalue()
    else:
        text = _json_text(res.payload)
    out = getattr(args, "out", None)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)
    return res.code


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _require_dir(d: str):
    if not os.path.isdir(d or "."):
        raise ValueError(f"no such output directory: {d}")


def _atomic_write(path: str, text: str):
    _require_dir(os.path.dirname(path))
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {path}")
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fraction(text: str):
    """Fraction(text), with a zero denominator reported as bad input
    (ValueError, exit 2) like any other malformed number."""
    from fractions import Fraction
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text}") from None


_fraction.__name__ = "Fraction"  # argparse names the type in its messages


def _tau_stream(spec: str):
    """Stream for a --tau argument: p/q, feigenbaum:j, or feigenbaum:inf."""
    if spec == "feigenbaum:inf":
        return symbolic.feigenbaum_limit()
    if spec.startswith("feigenbaum:"):
        # zeta --entropy on level j strips a degree-2^j determinant: about
        # 0.3 s at the cap on a 2-core Xeon, 2.4x that per level past it
        j = int(spec.split(":", 1)[1])
        if not 1 <= j <= 14:
            raise ValueError("level must be in 1..14")
        return symbolic.feigenbaum_stream(j)
    return encoding.kneading_from_tau(_fraction(spec))


# ---------------------------------------------------------------- handlers

_MAX_BITS = 1 << 16


def _check_bits(bits: int):
    # both the enclosure and its certified quotients grow with --bits; the
    # quotients cost O(bits^2): about 0.5 s at the cap on a 2-core Xeon
    if not 1 <= bits <= _MAX_BITS:
        raise ValueError(f"bits must be in 1..{_MAX_BITS}")


def _check_cap(name: str, value: int, cap: int):
    """Upper bound of a costly option; its lower bound is checked where the
    value is used."""
    if value > cap:
        raise ValueError(f"{name} must be at most {cap}")


def _cmd_tau(args) -> _Result:
    _check_bits(args.bits)
    if args.infinity:
        return _Result(feigenbaum.tau_infinity_enclosure(args.bits).to_json())
    if not 1 <= args.j <= 20:
        raise ValueError("level must be in 1..20")
    lvl = feigenbaum.tau_level(args.j)
    # p/q is in lowest terms; Fraction(p, q) would only repeat a gcd of
    # 2^(j-1)-bit integers, and str() refuses q past level 14
    p, q = feigenbaum._decimal_str(lvl.p), feigenbaum._decimal_str(lvl.q)
    return _Result({"j": lvl.j, "p": p, "q": q,
                    "tau": lvl.p / lvl.q if args.as_float else f"{p}/{q}",
                    "digits": lvl.period_digits},
                   text=f"j={lvl.j} tau={p}/{q} digits={lvl.period_digits}")


def _cmd_cf(args) -> _Result:
    _check_bits(args.bits)
    if args.what == "tau-level":
        if not 1 <= args.j <= 12:
            raise ValueError("level must be in 1..12")
        q = list(cfrac.cf_of_rational(feigenbaum.tau_level(args.j).value).quotients)
        return _Result({"j": args.j, "quotients": q, "count": len(q)},
                       text=" ".join(map(str, q)))
    if args.what == "tau-infinity":
        q = cfrac.cf_of_enclosure(feigenbaum.tau_infinity_enclosure(args.bits))
        return _Result({"bits": args.bits, "quotients": q, "count": len(q)})
    rows = cfrac.cf_table(args.jmax)
    return _Result([{"j": j, "quotients": q, "count": n} for j, q, n in rows],
                   (("j", "n_j", "quotients"),
                    [(j, n, " ".join(map(str, q))) for j, q, n in rows]))


def _cmd_zeta(args) -> _Result:
    # p/q and feigenbaum:j expand the rational zeta in O(order * (m + p))
    # products, m + p the determinant's degree; feigenbaum:inf still costs
    # O(order^2), and so bounds the order: about 0.33 s for --counts at the
    # cap in a fresh process on a 2-core Xeon
    if not 1 <= args.order <= 2048:
        raise ValueError("order must be in 1..2048")
    # entropy costs more as tol shrinks: --order 2048 on feigenbaum:inf
    # takes about 1.2 s at this floor and 7.2 s at 1/10^300 on a 2-core Xeon
    if args.entropy and 0 < args.tol and args.tol * 10 ** 100 < 1:
        raise ValueError("tolerance must be at least 1/10^100")
    stream = _tau_stream(args.tau)
    if (args.counts or args.entropy) and encoding.is_maximal(stream) is not True:
        raise ValueError("K is not a maximal stream")
    det = spectral.kneading_determinant(stream, args.order)
    zeta = spectral.zeta_series(stream, args.order)
    payload = {"tau": args.tau, "order": args.order,
               "determinant": list(det.coefficients), "zeta": list(zeta.coefficients)}
    if args.counts:
        oc = spectral.orbit_counts(zeta)
        payload["perCounts"] = {str(n): c for n, c in oc.per_counts.items()}
        payload["primeCounts"] = {str(n): c for n, c in oc.prime_counts.items()}
    if args.entropy:
        try:
            res = spectral.entropy(stream, N=args.order, tol=args.tol)
            bracket = None
            if res.z_bracket is not None:
                bracket = [_num(b, args) for b in res.z_bracket]
            payload["entropy"] = {"lo": res.lo, "hi": res.hi, "method": res.method,
                                  "bracket": bracket}
        except spectral.EntropyInconclusive as e:
            payload["entropy"] = {"error": str(e)}
    return _Result(payload)


def _cmd_lang(args) -> _Result:
    if args.what == "forbidden":
        # one word of up to nmax symbols per zero digit: at the cap about
        # 4 MB of output in 0.15 s on a 2-core Xeon
        _check_cap("nmax", args.nmax, 4096)
    stream = _tau_stream(args.tau)
    if args.what == "complexity":
        counts = language.complexity(language.LanguageQuery(stream, args.nmax, args.mode))
        return _Result({"tau": args.tau, "mode": args.mode, "counts": counts},
                       (("n", "p_n"), list(enumerate(counts, start=1))))
    return _Result({"tau": args.tau, "nmax": args.nmax,
                    "forbidden": language.forbidden_words(encoding.xi(stream), args.nmax)})


_FREQ_STREAMS = {
    "feigenbaum": lambda: symbolic.feigenbaum_limit(),
    "thue-morse": lambda: symbolic.FixedPointStream(symbolic.THUE_MORSE_RULE, "0"),
    "tau-inf": lambda: encoding.xi(symbolic.feigenbaum_limit()),
}


def _cmd_freq(args) -> _Result:
    # windows longer than 8 symbols are counted one at a time: about 1.3 s
    # at both caps on a 2-core Xeon
    _check_cap("block", args.block, 64)
    _check_cap("prefix", args.prefix, 1 << 22)
    stream = _FREQ_STREAMS[args.stream]()
    freqs = frequency.empirical_frequencies(stream, args.block, args.prefix,
                                            aligned=args.aligned)
    predicted = None
    if args.stream == "feigenbaum" and args.block == 1:
        predicted = frequency.letter_frequencies(symbolic.FEIGENBAUM_RULE)
    elif args.stream == "tau-inf" and args.block == 2 and args.aligned:
        predicted = frequency.pair_frequencies()
    payload = {"stream": args.stream, "block": args.block, "prefix": args.prefix,
               "aligned": args.aligned,
               "frequencies": {k: _num(v, args) for k, v in freqs.items()}}
    if predicted is not None:
        payload["predicted"] = {k: _num(v, args) for k, v in predicted.items()}
    return _Result(payload)


def _dyn_map(args):
    if args.family == "logistic":
        return dynamics.logistic_map(args.r, eta=args.eta)
    return dynamics.tent_map(args.slope, eta=args.eta)


# float orbits carry no information past a few dozen symbols; the costs are
# linear in --n times --steps or --pairs, about 0.6 s at the caps as a fresh
# process on a 2-core Xeon
_MAX_N = 256
_MAX_POINTS = 4096


def _scan(args) -> _Result:
    """`dyn scan` and `export bifurcation-scan`."""
    if args.steps < 2:
        raise ValueError("need at least two grid points")
    _check_cap("steps", args.steps, _MAX_POINTS)
    _check_cap("n", args.n, _MAX_N)
    grid = [args.lo + (args.hi - args.lo) * i / (args.steps - 1)
            for i in range(args.steps)]
    rep = dynamics.monotonicity_scan(grid, args.n)
    rows = [(row.r, row.tau, row.reliable_prefix) for row in rep.rows]
    return _Result({"decreases": rep.decreases,
                    "rows": [{"r": r, "tau": t, "reliablePrefix": k} for r, t, k in rows]},
                   (("r", "tau", "reliable_prefix"), rows))


def _cmd_dyn(args) -> _Result:
    if args.what == "scan":
        return _scan(args)
    _check_cap("n", args.n, _MAX_N)
    if args.what == "kneading":
        word, flags = dynamics.kneading(_dyn_map(args), args.n)
        return _Result({"family": args.family,
                        "parameter": args.r if args.family == "logistic" else args.slope,
                        "n": args.n, "word": word,
                        "reliable": "".join("R" if f else "u" for f in flags)})
    _check_cap("pairs", args.pairs, _MAX_POINTS)
    rep = dynamics.lemma1_validate(_dyn_map(args), args.pairs, args.n, seed=args.seed)
    return _Result({"pairsTested": rep.pairs_tested,
                    "pairsDecided": rep.pairs_decided,
                    "pairsExcluded": rep.pairs_excluded,
                    "violations": rep.violations},
                   code=0 if rep.violations == 0 else 1)


# ------------------------------------------------------- reproduction targets

# reference values, exact strings only
_GOLDEN_TAU = (
    "2/3", "4/5", "14/17", "212/257", "54062/65537",
    "3542953172/4294967297",
    "15216868001456509742/18446744073709551617",
)

# quotient counts n_j for j = 1..12
_GOLDEN_NJ = (2, 2, 4, 6, 12, 23, 39, 71, 121, 253, 528, 1129)

# continued-fraction quotients of the first eight levels
_GOLDEN_CF = {
    1: "1 2",
    2: "1 4",
    3: "1 4 1 2",
    4: "1 4 1 2 2 6",
    5: "1 4 1 2 2 6 2 1 2 9 1 2",
    6: "1 4 1 2 2 6 2 1 2 9 1 2 2 1 1 21 1 10 2 1 1 1 5",
    7: "1 4 1 2 2 6 2 1 2 9 1 2 2 1 1 21 1 10 2 1 1 1 4 "
       "1 2 29 1 24 1 1 7 11 3 2 5 1 1 1 89",
    8: "1 4 1 2 2 6 2 1 2 9 1 2 2 1 1 21 1 10 2 1 1 1 4 "
       "1 2 29 1 24 1 1 7 11 3 2 5 1 1 1 88 1 1 1 6 1 1 "
       "33 2 6 1 24 1 5 212 2 1 10 1 3 11 2 1 2 1 10 1 1 2 3 2549 1 2",
}

# first 17 coefficients of the alternating lacunary product
_GOLDEN_XI = "1 -1 -1 1 -1 1 1 -1 -1 1 1 -1 1 -1 -1 1 -1"

# limit-word letter and aligned-pair frequencies
_GOLDEN_LETTERS = {"0": "1/3", "1": "2/3"}
_GOLDEN_PAIRS = {"00": "1/3", "01": "1/6", "10": "1/6", "11": "1/3"}
# exact letter counts in the 2^16 prefix
_GOLDEN_LETTERS_64K = {"0": "21845/65536", "1": "43691/65536"}

# closed-form zeta functions: tau, numerator, denominator
_GOLDEN_ZETA = (
    ("1", "1", "1 -2"),
    ("5/6", "1 1", "1 -1 -2 2"),
    ("6/7", "1", "1 -2 0 1"),
)


def _ints(text: str) -> list:
    return [int(tok) for tok in text.split()]


def _target_tau_table():
    rows, ok = [], True
    for j, want in enumerate(_GOLDEN_TAU, start=1):
        got = feigenbaum.tau_level(j).value
        match = got == _fraction(want)
        ok = ok and match
        rows.append({"j": j, "want": want, "got": str(got), "match": match})
    return ok, f"{len(rows)} exact parameters", rows


def _target_cf_table():
    rows, ok = [], True
    table = {j: q for j, q, _ in cfrac.cf_table(8)}
    for j, want in _GOLDEN_CF.items():
        got = " ".join(map(str, table[j]))
        match = got == want
        ok = ok and match
        rows.append({"j": j, "match": match, "quotients": got})
    return ok, "quotients through level 8", rows


def _target_nj_sequence():
    got = tuple(n for _, _, n in cfrac.cf_table(12))
    ok = got == _GOLDEN_NJ
    return ok, f"counts {list(got)}", [{"want": list(_GOLDEN_NJ), "got": list(got)}]


def _target_xi_series():
    got = list(spectral.xi_series(16).coefficients)
    ok = got == _ints(_GOLDEN_XI)
    return ok, "17 coefficients", [{"want": _ints(_GOLDEN_XI), "got": got}]


def _target_frequencies():
    rows, ok = [], True
    checks = (
        ("letters", frequency.letter_frequencies(symbolic.FEIGENBAUM_RULE),
         _GOLDEN_LETTERS),
        ("pairs", frequency.pair_frequencies(), _GOLDEN_PAIRS),
        ("letters-64k",
         frequency.empirical_frequencies(symbolic.feigenbaum_limit(), 1, 1 << 16),
         _GOLDEN_LETTERS_64K),
    )
    for name, got, want in checks:
        got_s = {k: str(v) for k, v in got.items()}
        match = got_s == want
        ok = ok and match
        rows.append({"check": name, "want": want, "got": got_s, "match": match})
    return ok, "letter and pair profiles", rows


def _target_zeta_examples():
    rows, ok = [], True
    for spec, num, den in _GOLDEN_ZETA:
        got = spectral.zeta_series(encoding.kneading_from_tau(_fraction(spec)), 30)
        want = spectral.series_of_rational(_ints(num), _ints(den), 30)
        match = got.coefficients == want.coefficients
        ok = ok and match
        rows.append({"tau": spec, "numerator": num, "denominator": den,
                     "match": match})
    return ok, "3 closed forms at order 30", rows


def _target_entropy_examples():
    rows, ok = [], True
    refs = (("1", math.log(2.0)),
            ("5/6", math.log(2.0) / 2.0),
            ("6/7", math.log((1.0 + math.sqrt(5.0)) / 2.0)))
    for spec, ref in refs:
        res = spectral.entropy(encoding.kneading_from_tau(_fraction(spec)))
        good = res.lo <= ref <= res.hi and res.hi - res.lo <= 1.1e-10
        ok = ok and good
        rows.append({"tau": spec, "lo": res.lo, "hi": res.hi,
                     "method": res.method, "match": good})
    for j in range(1, 7):
        res = spectral.entropy(symbolic.feigenbaum_stream(j))
        good = res.lo == 0.0 == res.hi
        ok = ok and good
        rows.append({"tau": f"feigenbaum:{j}", "lo": res.lo, "hi": res.hi,
                     "method": res.method, "match": good})
    return ok, "3 positive enclosures + 6 exact zeros", rows


_TARGETS = {
    "tau-table": _target_tau_table,
    "cf-table": _target_cf_table,
    "nj-sequence": _target_nj_sequence,
    "xi-series": _target_xi_series,
    "frequencies": _target_frequencies,
    "zeta-examples": _target_zeta_examples,
    "entropy-examples": _target_entropy_examples,
}


def _cmd_reproduce(args) -> int:
    if args.out:
        _require_dir(args.out)
    all_ok = True
    for name in sorted(_TARGETS) if args.target == "all" else [args.target]:
        try:
            ok, detail, rows = _TARGETS[name]()
        except Exception as e:
            ok, detail, rows = False, f"error: {e}", []
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if args.out:
            path = os.path.join(args.out, f"{name}.json")
            _atomic_write(path, _json_text({"target": name, "pass": ok,
                                            "detail": detail, "rows": rows}))
    return 0 if all_ok else 1


# ------------------------------------------------------------ export kinds

def _export_zeta_roots(args) -> _Result:
    # denominator (1 - z) * prod_{n<=j} (1 - z^(2^n)); every root is a root
    # of unity, listed factor by factor with multiplicity
    j = args.j
    # 2^(j+1) - 1 rows, each a product of j + 2 factors: about 13 ms at the
    # cap on a 2-core Xeon, a little over twice that per level
    if not 0 <= j <= 11:
        raise ValueError("j must be in 0..11")
    rows = []
    for n in range(j + 1):
        m = 2 ** n
        for k in range(m):
            ang = 2.0 * math.pi * k / m
            z = complex(math.cos(ang), math.sin(ang))
            # the residual from the factored form, w = z^(2^i) by squaring
            val, w = 1 - z, z
            for _ in range(j + 1):
                val, w = val * (1 - w), w * w
            rows.append((n, k, z.real, z.imag,
                         abs(abs(z) - 1.0), abs(val)))
    return _Result([{"factor": n, "k": k, "re": re, "im": im,
                     "modulusError": me, "residual": rv}
                    for n, k, re, im, me, rv in rows],
                   (("factor", "k", "re", "im", "modulus_error", "residual"), rows))


def _export_frequency_convergence(args) -> _Result:
    if args.kmin < 1 or args.kmin > args.kmax:
        raise ValueError("need 1 <= kmin <= kmax")
    # the prefixes add up to 2^(kmax+1) symbols: about 1.2 s and 180 MB at
    # the cap on a 2-core Xeon
    _check_cap("kmax", args.kmax, 25)
    stream = symbolic.feigenbaum_limit()
    predicted = frequency.letter_frequencies(symbolic.FEIGENBAUM_RULE)
    rows = []
    for k in range(args.kmin, args.kmax + 1):
        n = 1 << k
        obs = frequency.empirical_frequencies(stream, 1, n)
        dev = max(abs(obs.get(b, 0) - predicted[b]) for b in "01")
        rows.append((k, n, str(dev)))
    return _Result([{"k": k, "n": n, "deviation": d} for k, n, d in rows],
                   (("k", "n", "deviation"), rows))


def _cmd_export(args) -> _Result:
    return {"zeta-roots": _export_zeta_roots,
            "bifurcation-scan": _scan,
            "frequency-convergence": _export_frequency_convergence}[args.kind](args)


# ---------------------------------------------------------------- parser

def _add_common(p):
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--float", dest="as_float", action="store_true",
                   help="emit floats instead of exact fraction strings")


def _build_parser(argv) -> argparse.ArgumentParser:
    """Every subcommand with its help line, but options only for those named
    in ``argv``: argparse runs one of those, so it parses and words its
    messages as the full parser would."""
    parser = argparse.ArgumentParser(
        prog="kneading",
        description="Exact kneading-theory tables, series, and scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str):
        p = sub.add_parser(name, help=summary)
        if name in argv:
            _add_common(p)
            return p

    if p := command("tau", "period-doubling parameter levels"):
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--j", type=int)
        g.add_argument("--infinity", action="store_true")
        p.add_argument("--bits", "--precision-bits", dest="bits", type=int, default=128)
        p.set_defaults(handler=_cmd_tau)

    if p := command("cf", "continued-fraction expansions"):
        p.add_argument("what", choices=("tau-level", "tau-infinity", "table"))
        p.add_argument("--j", type=int, default=1)
        p.add_argument("--bits", "--precision-bits", dest="bits", type=int, default=4096)
        p.add_argument("--jmax", type=int, default=8)
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_cf)

    if p := command("zeta", "kneading determinant and zeta series"):
        p.add_argument("--tau", required=True,
                       help="p/q, feigenbaum:j, or feigenbaum:inf")
        p.add_argument("--order", type=int, default=30)
        p.add_argument("--counts", action="store_true")
        p.add_argument("--entropy", action="store_true")
        p.add_argument("--tol", type=_fraction, default="1/10000000000")
        p.set_defaults(handler=_cmd_zeta)

    if p := command("lang", "admissible-word language"):
        p.add_argument("what", choices=("complexity", "forbidden"))
        p.add_argument("--tau", required=True)
        p.add_argument("--nmax", type=int, default=12)
        p.add_argument("--mode", choices=("core", "full-interval"), default="core")
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_lang)

    if p := command("freq", "block frequencies of symbol streams"):
        p.add_argument("--stream", choices=sorted(_FREQ_STREAMS), default="feigenbaum")
        p.add_argument("--block", type=int, default=1)
        p.add_argument("--prefix", type=int, default=1 << 16)
        p.add_argument("--aligned", action="store_true")
        p.set_defaults(handler=_cmd_freq)

    if p := command("dyn", "floating-point unimodal dynamics"):
        p.add_argument("what", choices=("kneading", "scan", "lemma1"))
        p.add_argument("--family", choices=("logistic", "tent"), default="logistic")
        p.add_argument("--r", type=float, default=3.9)
        p.add_argument("--slope", type=float, default=2.0)
        p.add_argument("--eta", type=float, default=1e-9)
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--from", dest="lo", type=float, default=3.5)
        p.add_argument("--to", dest="hi", type=float, default=4.0)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--pairs", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_dyn)

    if p := command("reproduce", "regenerate reference tables and diff"):
        p.add_argument("target", choices=sorted(_TARGETS) + ["all"])
        p.add_argument("--out", help="directory for per-target JSON reports")
        p.set_defaults(handler=_cmd_reproduce)

    if p := command("export", "plot-ready data files"):
        p.add_argument("kind", choices=("zeta-roots", "bifurcation-scan",
                                        "frequency-convergence"))
        p.add_argument("--j", type=int, default=6)
        p.add_argument("--from", dest="lo", type=float, default=3.5)
        p.add_argument("--to", dest="hi", type=float, default=4.0)
        p.add_argument("--steps", type=int, default=100)
        p.add_argument("--n", type=int, default=24)
        p.add_argument("--kmin", type=int, default=10)
        p.add_argument("--kmax", type=int, default=20)
        p.add_argument("--out")
        p.set_defaults(handler=_cmd_export)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 0
        return 2 if code else 0
    try:
        res = args.handler(args)
        # reproduce prints its own PASS/FAIL lines; every other handler
        # returns a _Result for the one emitter
        return res if isinstance(res, int) else _emit(args, res)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        name = getattr(e, "filename", None)
        print(f"error: {name or ''}: {e.strerror or e}", file=sys.stderr)
        return 3
    except Exception as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
