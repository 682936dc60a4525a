"""``kneading reproduce``: regenerate reference tables and diff."""

import math
import os

from .. import cfrac, encoding, feigenbaum, frequency, spectral, symbolic
from . import _atomic_write, _fraction, _json_text, _require_dir

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
    got = list(spectral.kneading_determinant(symbolic.feigenbaum_limit(), 16).coefficients)
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
        got = spectral.zeta_series(spectral.kneading_determinant(
            encoding.kneading_from_tau(_fraction(spec)), 30))
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
    # every stream here is eventually periodic, so the entropy reads the
    # determinant's exact pair, which order 1 already carries
    for spec, ref in refs:
        res = spectral.entropy(spectral.kneading_determinant(
            encoding.kneading_from_tau(_fraction(spec)), 1))
        good = res.lo <= ref <= res.hi and res.hi - res.lo <= 1.1e-10
        ok = ok and good
        rows.append({"tau": spec, "lo": res.lo, "hi": res.hi,
                     "method": res.method, "match": good})
    for j in range(1, 7):
        res = spectral.entropy(spectral.kneading_determinant(
            symbolic.feigenbaum_stream(j), 1))
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


def add_arguments(p):
    p.add_argument("target", choices=sorted(_TARGETS) + ["all"])
    p.add_argument("--out", help="directory for per-target JSON reports")


def run(args) -> int:
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
