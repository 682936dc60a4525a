"""Tests of the benchmark's own code: generator determinism and reference math.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import oracle
import reference as ref
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _kinds(cmds):
    return Counter(tuple(a for a in c[:2] if not a.startswith("--")) for c in cmds)


def test_same_seed_same_commands():
    for w in workloads.WORKLOADS:
        assert workloads.generate(w, 7) == workloads.generate(w, 7)


def test_same_seed_same_commands_in_a_fresh_interpreter():
    # another process with another hash seed must draw the same lists
    code = ("import json, workloads; print(json.dumps({w: workloads.generate(w, 7) "
            "for w in workloads.WORKLOADS}))")
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=HERE)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert json.loads(out) == {w: workloads.generate(w, 7) for w in workloads.WORKLOADS}


def test_seeds_change_inputs_not_composition():
    for w in workloads.WORKLOADS:
        a, b = workloads.generate(w, 1), workloads.generate(w, 2)
        assert a != b
        assert _kinds(a) == _kinds(b)


def test_lang_and_counts_only_get_maximal_tau():
    pool = workloads.pools()
    for w in workloads.WORKLOADS:
        for seed in range(5):
            for c in workloads.generate(w, seed):
                if c[0] == "lang" or (c[0] == "zeta" and "--counts" in c):
                    assert c[c.index("--tau") + 1] in pool["maximal"], c


def test_tent_orbit_check():
    assert ref.is_maximal(Fraction(6, 7)) and ref.is_maximal(Fraction(1))
    assert not ref.is_maximal(Fraction(1, 2)) and not ref.is_maximal(Fraction(3, 5))


def test_closed_forms_agree_with_determinant_recurrence():
    for spec, (num, den) in ref.ZETA_CLOSED_FORMS.items():
        assert ref.rational_series(num, den, 40) == ref.zeta(ref.TauStream(spec), 40)


def test_lacunary_zeta_matches_general_inversion():
    ts = ref.TauStream("feigenbaum:inf")
    d = ref.determinant(ts, 60)
    e = [d[0]] + [d[k] - d[k - 1] for k in range(1, 61)]
    assert ref.zeta(ts, 60) == ref.reciprocal(e)


def test_newton_identity_full_shift():
    per = ref.periodic_counts(ref.rational_series([1], [1, -2], 12))
    assert per == {n: 2 ** n for n in range(1, 13)}
    assert ref.prime_counts(per)[5] == 6


def test_block_frequencies_against_naive_count():
    text = ref.limit_word(1000)
    for b in (1, 2, 3):
        for aligned in (False, True):
            step = b if aligned else 1
            blocks = [text[i:i + b] for i in range(0, len(text) - b + 1, step)]
            naive = {k: str(Fraction(v, len(blocks))) for k, v in sorted(Counter(blocks).items())}
            assert oracle.block_frequencies(text, b, aligned) == naive


def test_tau_levels_and_parity():
    assert [Fraction(*ref.tau_level(j)) for j in (1, 2, 3)] == \
        [Fraction(2, 3), Fraction(4, 5), Fraction(14, 17)]
    assert ref.tau_level_digits(3) == "11010010"
    assert ref.unparity(ref.parity("1101000111")) == "1101000111"
    assert ref.tau_infinity_digits(8) == "11010011"


def test_str_limit_threshold():
    assert not ref.exceeds_str_limit(10 ** 4300 - 1)
    assert ref.exceeds_str_limit(10 ** 4300)


def test_oracle_classifies_known_failures():
    err = "error: Exceeds the limit (4300 digits) for integer string conversion"
    assert oracle.check(["tau", "--j", "15"], 2, "", err, {})[0] == "known-failure"
    assert oracle.check(["tau", "--j", "14"], 2, "", err, {})[0] == "failed"
    crash = "internal error: 'NoneType' object is not iterable"
    assert oracle.check(["zeta", "--tau", "2/3", "--entropy"], 3, "", crash, {})[0] \
        == "known-failure"
    assert oracle.check(["zeta", "--tau", "6/7", "--entropy"], 3, "", crash, {})[0] \
        == "failed"


def test_oracle_checks_reproduce_reports(tmp_path):
    # the per-target reports are checked against the reference, not only the
    # PASS lines, which are the package's own verdict
    env = dict(os.environ, PYTHONPATH=os.path.join(HERE, os.pardir, "src"))
    run = subprocess.run([sys.executable, "-m", "kneading.cli", "reproduce", "all",
                          "--out", str(tmp_path)], env=env, capture_output=True,
                         text=True, timeout=120)
    files = {"@OUT/repro/" + p.name: p.read_text() for p in tmp_path.iterdir()}
    argv = ["reproduce", "all", "--out", "@OUT/repro/"]
    assert oracle.check(argv, run.returncode, run.stdout, run.stderr, files) == ("ok", "")
    report = json.loads(files["@OUT/repro/tau-table.json"])
    report["rows"][2]["got"] = "13/17"
    files["@OUT/repro/tau-table.json"] = json.dumps(report)
    assert oracle.check(argv, 0, run.stdout, "", files)[0] == "failed"
