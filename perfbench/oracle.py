"""Checks one kneading command's output against the benchmark's own reference.

``check(argv, rc, stdout, stderr, files)`` returns ``(outcome, detail)`` with
outcome one of:

ok             exit 0 and the output matches the reference;
known-failure  a documented input that fails at the baseline, failing in the
               recorded way (see KNOWN_FAILURES); the same input passing with
               correct output is "ok";
failed         anything else: wrong output, unexpected exit code, timeout.

Checks compare parsed values, and only the fields the reference knows, so an
added field or a formatting change is not a failure.  Nothing here imports
``kneading``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import reference as ref

# the failures recorded at the baseline: (exit code, stderr fragment)
KNOWN_FAILURES = {
    "str-digit-limit": (2, "Exceeds the limit (4300 digits)"),
    "zero-entropy-bracket": (3, "'NoneType' object is not iterable"),
}

_FLAGS = {"--infinity", "--float", "--counts", "--entropy", "--aligned"}


class Mismatch(Exception):
    pass


def _parse(argv):
    pos, opts = [], {}
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in _FLAGS:
            opts[a[2:]] = True
            i += 1
        elif a.startswith("--"):
            opts[a[2:]] = argv[i + 1]
            i += 2
        else:
            pos.append(a)
            i += 1
    return pos, opts


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def _match(got: dict, want: dict):
    for k, v in want.items():
        _expect(k in got, f"missing field {k!r}")
        _expect(got[k] == v, f"field {k!r}: got {str(got[k])[:80]}, want {str(v)[:80]}")


def _payload(o, stdout, files):
    """Command output: the --out file when one was written, else stdout."""
    return files[o["out"]] if "out" in o else stdout


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check(argv, rc: int, stdout: str, stderr: str, files: dict) -> tuple[str, str]:
    pos, o = _parse(argv)
    try:
        with ref.unlimited_int_str():
            known = _CHECKS[pos[0]](pos, o, rc, stdout, files)
    except Mismatch as e:
        return "failed", str(e)
    except (ValueError, KeyError, IndexError, TypeError, json.JSONDecodeError) as e:
        if rc != 0:
            return "failed", f"exit {rc}: {stderr.strip()[:200]}"
        return "failed", f"unreadable output: {type(e).__name__}: {e}"
    if known is not None and rc != 0:
        code, fragment = KNOWN_FAILURES[known]
        if rc == code and fragment in stderr:
            return "known-failure", known
    if rc != 0:
        return "failed", f"exit {rc}: {stderr.strip()[:200]}"
    return "ok", ""


# Each check returns the name of the known failure the input is expected to
# hit (or None), and raises Mismatch when exit 0 comes with wrong output.  On a
# non-zero exit the output is not examined.

def _tau(pos, o, rc, out, files):
    if o.get("infinity"):
        bits = int(o.get("bits", 128))
        n = int(ref.tau_infinity_digits(bits), 2)
        lo = Fraction(n, 2 ** bits)
        hi = lo + Fraction(1, 2 ** bits)
        known = ("str-digit-limit" if ref.exceeds_str_limit(lo.numerator)
                 or ref.exceeds_str_limit(hi.numerator) else None)
        if rc == 0:
            def dyadic(x):
                return f"{x.numerator}/2^{x.denominator.bit_length() - 1}"
            _match(json.loads(out), {"lo": dyadic(lo), "hi": dyadic(hi), "bits": bits})
        return known
    j = int(o["j"])
    p, q = ref.tau_level(j)
    known = "str-digit-limit" if ref.exceeds_str_limit(q) else None
    if rc == 0:
        digits = ref.tau_level_digits(j)
        if o.get("format") == "text":
            _expect(out == f"j={j} tau={p}/{q} digits={digits}\n", "text line differs")
        else:
            tau = float(Fraction(p, q)) if o.get("float") else f"{p}/{q}"
            _match(json.loads(out), {"j": j, "p": str(p), "q": str(q), "tau": tau,
                                     "digits": digits})
    return known


def _level_quotients(j):
    return ref.cf_quotients(*ref.tau_level(j))


def _cf(pos, o, rc, out, files):
    if rc != 0:
        return None
    what = pos[1]
    if what == "tau-level":
        j = int(o.get("j", 1))
        q = _level_quotients(j)
        if o.get("format") == "text":
            _expect(out == " ".join(map(str, q)) + "\n", "text quotients differ")
        else:
            _match(json.loads(out), {"j": j, "quotients": q, "count": len(q)})
    elif what == "tau-infinity":
        bits = int(o.get("bits", 4096))
        n = int(ref.tau_infinity_digits(bits), 2)
        q = ref.cf_of_interval(n, 2 ** bits, n + 1, 2 ** bits)
        _match(json.loads(out), {"bits": bits, "quotients": q, "count": len(q)})
    else:
        jmax = int(o.get("jmax", 8))
        rows = [(j, _level_quotients(j)) for j in range(1, jmax + 1)]
        text = _payload(o, out, files)
        if o.get("format") == "csv":
            header, body = _csv_rows(text)
            _expect(header == ["j", "n_j", "quotients"], "csv header")
            _expect(body == [[str(j), str(len(q)), " ".join(map(str, q))] for j, q in rows],
                    "csv rows differ")
        else:
            got = json.loads(text)
            _expect(len(got) == jmax, "row count")
            for g, (j, q) in zip(got, rows):
                _match(g, {"j": j, "quotients": q, "count": len(q)})
    return None


def _zeta(pos, o, rc, out, files):
    spec, N = o["tau"], int(o.get("order", 30))
    zero_entropy = ref.is_cascade_level(spec)
    known = "zero-entropy-bracket" if o.get("entropy") and zero_entropy else None
    if rc != 0:
        return known
    ts = ref.TauStream(spec)
    got = json.loads(out)
    if spec in ref.ZETA_CLOSED_FORMS:
        z = ref.rational_series(*ref.ZETA_CLOSED_FORMS[spec], N)
    else:
        z = ref.zeta(ts, N)
    _match(got, {"tau": spec, "order": N, "determinant": ref.determinant(ts, N), "zeta": z})
    if o.get("counts"):
        per = ref.periodic_counts(z)
        _match(got, {"perCounts": {str(n): c for n, c in per.items()},
                     "primeCounts": {str(n): c for n, c in ref.prime_counts(per).items()}})
    if o.get("entropy"):
        _check_entropy(spec, ts, got["entropy"], zero_entropy)
    return known


def _check_entropy(spec, ts, e, zero_entropy):
    _expect("error" not in e, f"entropy inconclusive on an exact stream: {e.get('error')}")
    lo, hi = e["lo"], e["hi"]
    _expect(0 <= lo <= hi, "empty entropy bracket")
    if zero_entropy:
        _expect(lo == 0 and hi <= 1e-9, "zero-entropy stream with positive entropy")
        return
    _expect(hi - lo <= 1e-9, "entropy bracket wider than the tolerance")
    if spec in ref.ENTROPY_CLOSED_FORMS:
        h = ref.ENTROPY_CLOSED_FORMS[spec]
        _expect(lo <= h <= hi, f"closed-form entropy {h} outside [{lo}, {hi}]")
    a, b = (Fraction(x) for x in e["bracket"])
    method = e["method"]

    def D(x):
        return ref.determinant_value(ts, x)

    if method == "exact-rational-root":
        _expect(a == b and D(a) == 0, "claimed rational root is not a root")
    elif method == "bisection":
        _expect(0 <= a < b <= 1 and D(a) > 0 > D(b), "bracket does not straddle a root")
        _expect(lo <= -math.log(float(b)) and hi >= -math.log(float(a)),
                "entropy bracket does not cover the root bracket")
    else:
        raise Mismatch(f"method {method!r} on a positive-entropy stream")
    # the root must be the smallest one: the determinant stays positive left of it
    _expect(all(D(a * k / 64) > 0 for k in range(64)), "a smaller root exists")


def _lang(pos, o, rc, out, files):
    if rc != 0:
        return None
    spec, nmax = o["tau"], int(o.get("nmax", 12))
    ts = ref.TauStream(spec)
    if pos[1] == "forbidden":
        _match(json.loads(out), {"tau": spec, "nmax": nmax, "forbidden": ref.forbidden(ts, nmax)})
        return None
    mode = o.get("mode", "core")
    text = _payload(o, out, files)
    if o.get("format") == "csv":
        header, body = _csv_rows(text)
        _expect(header == ["n", "p_n"], "csv header")
        _expect([int(r[0]) for r in body] == list(range(1, len(body) + 1)), "csv n column")
        counts = [int(r[1]) for r in body]
    else:
        got = json.loads(text)
        _match(got, {"tau": spec, "mode": mode})
        counts = got["counts"]
    _expect(len(counts) == nmax, "wrong number of counts")
    brute = ref.viable_counts(ts, nmax, mode == "core")
    _expect(counts[:len(brute)] == brute, f"counts differ from brute force: {brute}")
    if spec == "1":
        _expect(counts == [2 ** n for n in range(1, nmax + 1)], "full shift is not 2^n")
    if spec == "6/7" and mode == "core":
        fib = [2, 3]
        while len(fib) < nmax:
            fib.append(fib[-1] + fib[-2])
        _expect(counts == fib[:nmax], "golden-mean counts are not Fibonacci")
    # factor-language invariants for the lengths brute force did not reach
    for n in range(1, nmax):
        _expect(counts[n - 1] <= counts[n] <= 2 * counts[n - 1], f"growth at n={n + 1}")
    for m in range(1, nmax):
        for n in range(1, nmax - m + 1):
            _expect(counts[m + n - 1] <= counts[m - 1] * counts[n - 1],
                    f"not submultiplicative at {m}+{n}")
    return None


_STREAMS = {
    "feigenbaum": ref.limit_word,
    "thue-morse": ref.thue_morse_word,
    "tau-inf": ref.tau_infinity_digits,
}
_PREDICTED = {
    ("feigenbaum", 1, False): {"0": "1/3", "1": "2/3"},
    ("tau-inf", 2, True): {"00": "1/3", "01": "1/6", "10": "1/6", "11": "1/3"},
}


class _TextCache:
    """Longest prefix computed so far per stream; checks reuse it."""

    def __init__(self):
        self.text = {}

    def get(self, stream, n):
        t = self.text.get(stream, "")
        if len(t) < n:
            t = _STREAMS[stream](n)
            self.text[stream] = t
        return t[:n]


_texts = _TextCache()


def block_frequencies(text: str, b: int, aligned: bool) -> dict[str, str]:
    """Block frequencies from popcounts: one int per offset within the block,
    and a pattern's count is the popcount of the AND of matching columns."""
    N = len(text)
    if aligned:
        M = (N - b) // b + 1
        cols = [text[o::b][:M] for o in range(b)]
    else:
        M = N - b + 1
        cols = [text[o:o + M] for o in range(b)]
    mask = (1 << M) - 1
    xs = [int(c, 2) for c in cols]
    out = {}
    for k in range(2 ** b):
        pattern = format(k, f"0{b}b")
        v = mask
        for x, c in zip(xs, pattern):
            v &= x if c == "1" else ~x & mask
        count = v.bit_count()
        if count:
            out[pattern] = str(Fraction(count, M))
    return out


def _freq(pos, o, rc, out, files):
    if rc != 0:
        return None
    stream, b, N = o.get("stream", "feigenbaum"), int(o.get("block", 1)), int(o.get("prefix", 1 << 16))
    aligned = bool(o.get("aligned"))
    got = json.loads(out)
    _match(got, {"stream": stream, "block": b, "prefix": N, "aligned": aligned,
                 "frequencies": block_frequencies(_texts.get(stream, N), b, aligned)})
    predicted = _PREDICTED.get((stream, b, aligned if b > 1 else False))
    if predicted is not None:
        _match(got, {"predicted": predicted})
    return None


def _dyn(pos, o, rc, out, files):
    family = o.get("family", "logistic")
    par = float(o.get("r", 3.9) if family == "logistic" else o.get("slope", 2.0))
    what = pos[1]
    if what == "lemma1":
        pairs, n, seed = int(o.get("pairs", 1000)), int(o.get("n", 64)), int(o.get("seed", 0))
        tested, decided, excluded, violations = ref.lemma1_counts(family, par, pairs, n, seed)
        if rc == 0 or (rc == 1 and violations):
            _match(json.loads(out), {"pairsTested": tested, "pairsDecided": decided,
                                     "pairsExcluded": excluded, "violations": violations})
        _expect(violations == 0, "Lemma 1 violated: the reference replay finds violations")
        return None
    if rc != 0:
        return None
    n = int(o.get("n", 64))
    if what == "kneading":
        word, flags = ref.critical_itinerary(ref.unimodal(family, par), n)
        _match(json.loads(out), {"family": family, "parameter": par, "n": n, "word": word,
                                 "reliable": "".join("R" if f else "u" for f in flags)})
        return None
    _check_scan(o, _payload(o, out, files), n)
    return None


def _check_scan(o, text, n):
    steps = int(o.get("steps", 100))
    want = ref.scan_rows(float(o.get("from", 3.5)), float(o.get("to", 4.0)), steps, n)
    if o.get("format", "json") == "json":
        got = json.loads(text)
        rows = [(r["r"], r["tau"], r["reliablePrefix"]) for r in got["rows"]]
        decreases = got["decreases"]
    else:
        header, body = _csv_rows(text)
        _expect(header == ["r", "tau", "reliable_prefix"], "csv header")
        rows = [(float(r), float(t) if t else None, int(k)) for r, t, k in body]
        decreases = None
    _expect(len(rows) == steps, "row count")
    for (r, t, k), (wr, wt, wk) in zip(rows, want):
        _expect(r == wr and k == wk, f"row at r={wr}")
        _expect((t is None) == (wt is None) and (t is None or abs(t - wt) <= 1e-12),
                f"tau at r={wr}")
    if decreases is not None:
        vals = [t for _, t, _ in rows if t is not None]
        _expect(decreases == sum(v < u for u, v in zip(vals, vals[1:])), "decrease count")
    return None


def _export(pos, o, rc, out, files):
    if rc != 0:
        return None
    text = files[o["out"]]
    if pos[1] == "bifurcation-scan":
        _check_scan(o, text, int(o.get("n", 24)))
        return None
    kmin, kmax = int(o.get("kmin", 10)), int(o.get("kmax", 20))
    word = _texts.get("feigenbaum", 1 << kmax)
    rows = []
    for k in range(kmin, kmax + 1):
        n = 1 << k
        dev = abs(Fraction(word[:n].count("1"), n) - Fraction(2, 3))
        rows.append((k, n, str(dev)))
    if o.get("format", "json") == "json":
        got = json.loads(text)
        _expect(len(got) == len(rows), "row count")
        for g, (k, n, d) in zip(got, rows):
            _match(g, {"k": k, "n": n, "deviation": d})
    else:
        header, body = _csv_rows(text)
        _expect(header == ["k", "n", "deviation"], "csv header")
        _expect(body == [[str(k), str(n), d] for k, n, d in rows], "csv rows differ")
    return None


def _reproduce(pos, o, rc, out, files):
    if rc != 0:
        return None
    lines = out.splitlines()
    # `reproduce all` reports its targets in sorted order
    _expect(len(lines) == len(_REPRODUCE_ROWS), "target count")
    for line, name in zip(lines, sorted(_REPRODUCE_ROWS)):
        _expect(line.startswith(f"PASS {name}:"), f"target {name}: {line[:80]}")
        report = json.loads(files[o["out"] + name + ".json"])
        _match(report, {"target": name, "pass": True})
        rows = report["rows"]
        _expect(all(r.get("match", True) for r in rows), f"target {name}: a row does not match")
        try:
            _REPRODUCE_ROWS[name](rows)
        except Mismatch as e:
            raise Mismatch(f"target {name}: {e}") from None
    return None


def _tau_table_rows(rows):
    _expect([r["j"] for r in rows] == list(range(1, 8)), "levels")
    for r in rows:
        _expect(Fraction(r["got"]) == Fraction(*ref.tau_level(r["j"])), f"tau_{r['j']}")


def _cf_table_rows(rows):
    _expect([r["j"] for r in rows] == list(range(1, 9)), "levels")
    for r in rows:
        _expect(r["quotients"] == " ".join(map(str, _level_quotients(r["j"]))),
                f"quotients of tau_{r['j']}")


def _nj_rows(rows):
    _expect(len(rows) == 1, "row count")
    _expect(rows[0]["got"] == [len(_level_quotients(j)) for j in range(1, 13)], "n_j")


def _xi_rows(rows):
    _expect(len(rows) == 1, "row count")
    _expect(rows[0]["got"] == ref.determinant(ref.TauStream("feigenbaum:inf"), 16),
            "xi coefficients")


def _frequency_rows(rows):
    want = {"letters": _PREDICTED[("feigenbaum", 1, False)],
            "pairs": _PREDICTED[("tau-inf", 2, True)],
            "letters-64k": block_frequencies(_texts.get("feigenbaum", 1 << 16), 1, False)}
    _expect([r["check"] for r in rows] == list(want), "checks")
    for r in rows:
        _expect(r["got"] == want[r["check"]], r["check"])


def _zeta_rows(rows):
    want = {spec: (" ".join(map(str, num)), " ".join(map(str, den)))
            for spec, (num, den) in ref.ZETA_CLOSED_FORMS.items()}
    _expect([r["tau"] for r in rows] == list(want), "tau values")
    for r in rows:
        _expect((r["numerator"], r["denominator"]) == want[r["tau"]], f"closed form of {r['tau']}")


def _entropy_rows(rows):
    want = list(ref.ENTROPY_CLOSED_FORMS) + [f"feigenbaum:{j}" for j in range(1, 7)]
    _expect([r["tau"] for r in rows] == want, "tau values")
    for r in rows:
        lo, hi = r["lo"], r["hi"]
        h = ref.ENTROPY_CLOSED_FORMS.get(r["tau"], 0.0)
        if h:
            _expect(lo <= h <= hi and hi - lo <= 1.1e-10, f"entropy of {r['tau']}")
        else:
            _expect(lo == 0.0 == hi, f"entropy of {r['tau']}")


_REPRODUCE_ROWS = {"cf-table": _cf_table_rows, "entropy-examples": _entropy_rows,
                   "frequencies": _frequency_rows, "nj-sequence": _nj_rows,
                   "tau-table": _tau_table_rows, "xi-series": _xi_rows,
                   "zeta-examples": _zeta_rows}


_CHECKS = {"tau": _tau, "cf": _cf, "zeta": _zeta, "lang": _lang, "freq": _freq,
           "dyn": _dyn, "export": _export, "reproduce": _reproduce}
