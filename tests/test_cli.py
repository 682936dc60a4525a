"""End-to-end command surface: output shapes, exit codes, determinism."""

import errno
import hashlib
import importlib
import importlib.util
import json
import math
import os
import shlex
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kneading.cli as cli
import kneading.commands.reproduce as reproduce
import kneading.spectral as spectral
from kneading.feigenbaum import tau_level
from oracles import feigenbaum_zeta, tau_infinity_digit


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert rc == 0
    return json.loads(out)


def test_tau_level_json(capsys):
    d = run_json(capsys, "tau", "--j", "3")
    assert d == {"j": 3, "p": "14", "q": "17", "tau": "14/17",
                 "digits": "11010010"}


def test_tau_level_float(capsys):
    d = run_json(capsys, "tau", "--j", "2", "--float")
    assert d["tau"] == pytest.approx(0.8)


def test_tau_infinity(capsys):
    d = run_json(capsys, "tau", "--infinity", "--bits", "64")
    assert d["lo"].endswith("/2^64")
    lo = Fraction(*map(int, d["lo"].replace("2^64", str(2 ** 64)).split("/")))
    assert abs(lo - Fraction(8249, 10000)) < Fraction(1, 1000)


def test_tau_level_20_all_formats(capsys, lift_str_limit):
    d = run_json(capsys, "tau", "--j", "20")
    d_float = run_json(capsys, "tau", "--j", "20", "--float")
    rc, text = run(capsys, "tau", "--j", "20", "--format", "text")
    assert rc == 0
    # independent of the library: q = 2^(2^19) + 1, p = q - prod (2^(2^k) - 1)
    q = 2 ** (2 ** 19) + 1
    prod = 1
    for k in range(19):
        prod *= 2 ** (2 ** k) - 1
    lift_str_limit()
    p, q = str(q - prod), str(q)
    digits = d["digits"]
    assert len(digits) == 2 ** 20
    assert digits.startswith(tau_level(14).period_digits[:-1])
    assert d == {"j": 20, "p": p, "q": q, "tau": f"{p}/{q}", "digits": digits}
    # tau_20 and tau_14 differ by far less than one float ulp
    assert d_float == dict(d, tau=float(tau_level(14).value))
    assert text == f"j=20 tau={p}/{q} digits={digits}\n"


def test_tau_infinity_16384_bits(capsys, lift_str_limit):
    d = run_json(capsys, "tau", "--infinity", "--bits", "16384")
    n = int("".join(str(tau_infinity_digit(k)) for k in range(1, 16385)), 2)
    lift_str_limit()
    lo, hi = (f"{x.numerator}/2^{x.denominator.bit_length() - 1}"
              for x in (Fraction(n, 2 ** 16384), Fraction(n + 1, 2 ** 16384)))
    assert d == {"lo": lo, "hi": hi, "bits": 16384}


def test_cf_tau_level_text(capsys):
    rc, out = run(capsys, "cf", "tau-level", "--j", "5", "--format", "text")
    assert rc == 0
    assert out == "1 4 1 2 2 6 2 1 2 9 1 2\n"


def test_cf_table_csv(capsys):
    rc, out = run(capsys, "cf", "table", "--jmax", "3", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "j,n_j,quotients"
    assert len(lines) == 4
    assert lines[3] == "3,4,1 4 1 2"
    # --format text has no text line here, so it prints the CSV table too
    assert run(capsys, "cf", "table", "--jmax", "3", "--format", "text") == (0, out)


def test_cf_tau_infinity_prefix(capsys):
    d = run_json(capsys, "cf", "tau-infinity", "--bits", "256")
    assert d["count"] == len(d["quotients"]) > 10
    assert d["quotients"][:6] == [1, 4, 1, 2, 2, 6]


def test_zeta_counts_and_entropy(capsys):
    d = run_json(capsys, "zeta", "--tau", "6/7", "--order", "12",
                 "--counts", "--entropy")
    assert d["determinant"][:3] == [1, -1, -1]
    assert all(c == 0 for c in d["determinant"][3:])
    assert d["zeta"][:6] == [1, 2, 4, 7, 12, 20]
    assert d["perCounts"]["12"] == 323
    assert d["primeCounts"]["7"] == 4
    golden = math.log((1 + math.sqrt(5)) / 2)
    assert d["entropy"]["lo"] <= golden <= d["entropy"]["hi"]


@pytest.mark.parametrize("tau", ["6/7", "61/62", "feigenbaum:14", "feigenbaum:inf"])
def test_zeta_reads_the_stream_once(capsys, monkeypatch, tau):
    # payload, series, counts and entropy all come from one determinant,
    # so the stream's signs are read once
    calls = []
    read = spectral._epsilon_prefix

    def counted(stream, count):
        calls.append(count)
        return read(stream, count)

    monkeypatch.setattr(spectral, "_epsilon_prefix", counted)
    d = run_json(capsys, "zeta", "--tau", tau, "--order", "40", "--counts", "--entropy")
    assert {"perCounts", "entropy"} <= set(d)
    assert len(calls) == 1


def test_zeta_feigenbaum_level(capsys):
    d = run_json(capsys, "zeta", "--tau", "feigenbaum:3", "--order", "16")
    assert d["zeta"] == list(feigenbaum_zeta(2, 16).coefficients)


def test_lang_complexity(capsys):
    rc, out = run(capsys, "lang", "complexity", "--tau", "6/7",
                  "--nmax", "8", "--format", "csv")
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [int(p) for _, p in rows] == [2, 3, 5, 8, 13, 21, 34, 55]
    assert run(capsys, "lang", "complexity", "--tau", "6/7",
               "--nmax", "8", "--format", "text") == (0, out)

    d = run_json(capsys, "lang", "complexity", "--tau", "1", "--nmax", "6")
    assert d["counts"] == [2, 4, 8, 16, 32, 64]


def test_lang_forbidden(capsys):
    d = run_json(capsys, "lang", "forbidden", "--tau", "6/7", "--nmax", "10")
    assert d["forbidden"] == ["100", "101100", "101101100"]


def test_freq_predicted_pairs(capsys):
    d = run_json(capsys, "freq", "--stream", "tau-inf", "--block", "2",
                 "--prefix", "4096", "--aligned")
    assert d["predicted"] == {"00": "1/3", "01": "1/6", "10": "1/6", "11": "1/3"}
    obs = Fraction(d["frequencies"]["00"])
    assert abs(obs - Fraction(1, 3)) < Fraction(1, 100)


def test_freq_letters(capsys):
    d = run_json(capsys, "freq", "--stream", "feigenbaum", "--block", "1",
                 "--prefix", str(1 << 12))
    assert d["predicted"] == {"0": "1/3", "1": "2/3"}
    assert Fraction(d["frequencies"]["0"]) == Fraction((2 ** 12 - 1) // 3, 2 ** 12)


def test_dyn_kneading(capsys):
    d = run_json(capsys, "dyn", "kneading", "--family", "logistic",
                 "--r", "3.9", "--n", "16")
    assert d["word"] == "1001010010010101"
    assert d["reliable"] == "R" * 16


def test_dyn_scan_csv_and_file(capsys, tmp_path):
    rc, out = run(capsys, "dyn", "scan", "--from", "3.5", "--to", "4.0",
                  "--steps", "5", "--n", "12", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "r,tau,reliable_prefix"
    assert len(lines) == 6
    assert lines[-1].startswith("4.0,")

    target = tmp_path / "scan.csv"
    rc, _ = run(capsys, "dyn", "scan", "--steps", "5", "--n", "12",
                "--format", "csv", "--out", str(target))
    assert rc == 0
    first = target.read_bytes()
    rc, _ = run(capsys, "dyn", "scan", "--steps", "5", "--n", "12",
                "--format", "csv", "--out", str(target))
    assert rc == 0
    assert target.read_bytes() == first


def test_dyn_lemma1(capsys):
    d = run_json(capsys, "dyn", "lemma1", "--family", "tent",
                 "--pairs", "200", "--n", "30", "--seed", "5")
    assert d["violations"] == 0
    assert d["pairsTested"] == 200


@pytest.mark.parametrize("argv", [
    ["lang", "forbidden", "--tau", "6/7", "--nmax", "10"],
    ["cf", "tau-level", "--j", "5", "--format", "text"],
    ["cf", "tau-infinity", "--bits", "256"],
    ["dyn", "kneading", "--r", "3.9", "--n", "16"],
    ["dyn", "lemma1", "--family", "tent", "--pairs", "200", "--n", "30", "--seed", "5"],
])
def test_out_writes_what_stdout_would_show(capsys, tmp_path, argv):
    rc, want = run(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (rc, "")
    assert target.read_text() == want


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


_UMASK_RUN = """
import os, sys
os.umask(int(sys.argv[1], 8))
import kneading.cli
sys.exit(kneading.cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize("umask, mode", [("022", 0o644), ("077", 0o600)],
                         ids=["umask022", "umask077"])
def test_out_files_take_the_umask(tmp_path, umask, mode):
    # an --out file gets the mode a shell redirect would give it, 0666 less
    # the umask, not the temporary file's 0600; each child sets its own umask
    env = _child_env()
    for argv in (["export", "zeta-roots", "--j", "2", "--out", "roots.csv"],
                 ["reproduce", "nj-sequence", "--out", "."]):
        done = subprocess.run([sys.executable, "-c", _UMASK_RUN, umask, *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
    for name in ("roots.csv", "nj-sequence.json"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode, name


def test_reproduce_all(capsys, tmp_path):
    rc, out = run(capsys, "reproduce", "all", "--out", str(tmp_path))
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines)
    names = [line.split()[1].rstrip(":") for line in lines]
    assert names == sorted(names)
    for name in names:
        report = json.loads((tmp_path / f"{name}.json").read_text())
        assert report["pass"] is True


def test_reproduce_single(capsys):
    rc, out = run(capsys, "reproduce", "nj-sequence")
    assert rc == 0
    assert out.startswith("PASS nj-sequence:")


def test_reproduce_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(reproduce, "_GOLDEN_NJ", (1,) * 12)
    rc, out = run(capsys, "reproduce", "nj-sequence")
    assert rc == 1
    assert out.startswith("FAIL nj-sequence:")


def test_export_zeta_roots(capsys):
    for j in (0, 6, 11):
        rc, out = run(capsys, "export", "zeta-roots", "--j", str(j), "--format", "csv")
        assert rc == 0
        lines = out.splitlines()
        assert len(lines) == 1 + 2 ** (j + 1) - 1
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) < 1e-12
            assert float(cells[5]) < 1e-9


def test_export_frequency_convergence(capsys):
    rc, out = run(capsys, "export", "frequency-convergence",
                  "--kmin", "8", "--kmax", "16", "--format", "csv")
    assert rc == 0
    devs = [Fraction(line.split(",")[2]) for line in out.splitlines()[1:]]
    assert devs == [Fraction(1, 3 * 2 ** k) for k in range(8, 17)]


def test_export_frequency_convergence_float(capsys):
    # --float turns the exact deviations into floats in JSON and CSV alike
    want = [1 / (3 * 2 ** k) for k in range(3, 7)]
    argv = ("export", "frequency-convergence", "--kmin", "3", "--kmax", "6", "--float")
    assert [r["deviation"] for r in run_json(capsys, *argv)] == want
    rc, out = run(capsys, *argv, "--format", "csv")
    assert rc == 0
    assert [line.split(",")[2] for line in out.splitlines()[1:]] == [repr(x) for x in want]


def test_export_bifurcation_scan_rows(capsys):
    rc, out = run(capsys, "export", "bifurcation-scan", "--steps", "100",
                  "--n", "12", "--format", "csv")
    assert rc == 0
    assert len(out.splitlines()) == 101


def test_byte_identical_reruns(capsys):
    _, a = run(capsys, "zeta", "--tau", "5/6", "--order", "20", "--counts")
    _, b = run(capsys, "zeta", "--tau", "5/6", "--order", "20", "--counts")
    assert a == b
    _, a = run(capsys, "freq", "--stream", "thue-morse", "--block", "2",
               "--prefix", "1024")
    _, b = run(capsys, "freq", "--stream", "thue-morse", "--block", "2",
               "--prefix", "1024")
    assert a == b


def test_usage_exit_codes(capsys):
    assert cli.main([]) == 2
    assert cli.main(["nonsense"]) == 2
    assert cli.main(["tau"]) == 2
    assert cli.main(["tau", "--j", "0"]) == 2
    assert cli.main(["cf", "tau-level", "--j", "99"]) == 2
    assert cli.main(["zeta", "--tau", "6/7", "--order", "-5"]) == 2
    assert cli.main(["reproduce", "unknown-table"]) == 2
    assert cli.main(["dyn", "scan", "--steps", "1"]) == 2
    capsys.readouterr()


# The parser's text, pinned before the parser began to add options only for
# the subcommands named on the command line: every help page and parse error
# stays byte-identical to a parser that has all of them.  argparse words its
# text differently across Python versions; the digests are Python 3.11's.
_ALL_COMMANDS = ["tau", "cf", "zeta", "lang", "freq", "dyn", "reproduce", "export"]
_PARSER_TEXT_SHA256 = {
    "--help":
        "3e48191616546d2215ad9aa62fcd228a3f3ee8f79dd008057fff344119995017",
    "--bogus tau --j 1":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "tau --j x":
        "4e369eb73c9c0d0ee581be6ea428d2e979b81cfb7b5906a13003102eb4746481",
    "tau --help":
        "9041375d2b0ce858d950aa8e1a99342db92851f6e4d0c100cf98de12b90f1d42",
    "cf --help":
        "eba6aa990279bd0efef558eec3feafbb919add8218ca95db1b4cdf0e2e302811",
    "zeta --help":
        "5beb380dfed5fc1b354e72643cdbfc61fd891d4afcae3b4588d67a1df0b87d8c",
    "lang --help":
        "aeadc24048afcbb962c47cb8702f0fd029cb54ba3457388402a80fe14e851c60",
    "freq --help":
        "b5c59fdd07eb69f8ee88b74b0eb36e2218168e9824219c617796841fa04f407a",
    "dyn --help":
        "e2fc78861c8d0dffa4ea7c9ac5b31db66f6975d3fb7d478b9fad7c8f1eacacbf",
    "reproduce --help":
        "2538e94504e9b4bc0129d0df0b052a2a6dd35a76c271173ab885892b6b5dde6a",
    "export --help":
        "fecd40b34ed1e604bf7e76ed5617c75e21ed044ac97e6521749661d9ce536caa",
    "":
        "f1b8aee4f18ff29c30eb06ebfc3953a0bc6414a550f23e8223b5401be234fcfc",
    "nonsense":
        "2e8412e47d9d76429c2e845e9171b6867bbcad6cbe34ec4d15cfa8e6247a1aa5",
    "tau --bogus":
        "24063cecf72d3e44c62eaa4dbb5b6b381f40af2496f3071f0b945e2e58255842",
    "cf --bogus":
        "ca90e879787abbdcb53134094f8f1d15f0cbaf48fe02a5230df0ea8eaf71aabe",
    "zeta --bogus":
        "588ce580be4a5239674b1107db4f702932d19a881dec1f5c40af96c5d90ed1ed",
    "lang --bogus":
        "515e199a6d50306991fbf7ac95d7d0e81a80cbd3942115c15f841e8e3c895f33",
    "freq --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "dyn --bogus":
        "dcac54604ba8537748a5b1c91ada448752bb28fa273e4edec7fdbc97fd155d00",
    "reproduce --bogus":
        "08ce68fce3bca325e65588ee483f2accebbb965bd2157e11372c299db4acbf48",
    "export --bogus":
        "de139c3825776c6d35207b06cd738b87e32e9b82610a23cd496491623152ffa1",
    "tau --j 1 --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "cf table --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "zeta --tau 1 --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "lang complexity --tau 1 --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "freq --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "dyn kneading --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "reproduce all --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
    "export zeta-roots --bogus":
        "66b9c20104489d020b7603177b94916c8148b5814db1c1d31670186ebc9b056c",
}


def _parser_text(capsys, argv) -> str:
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return json.dumps([rc, captured.out, captured.err])


@pytest.mark.parametrize("argv", list(_PARSER_TEXT_SHA256))
def test_parser_text_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    text = _parser_text(capsys, argv.split())
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda _: build(_ALL_COMMANDS))
    assert _parser_text(capsys, argv.split()) == text
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(text.encode()).hexdigest() == _PARSER_TEXT_SHA256[argv]


@pytest.mark.parametrize("argv, code, err", [
    (["zeta", "--tau", "feigenbaum:3", "--order", "16", "--entropy"], 0, ""),
    (["zeta", "--tau", "0", "--order", "8", "--entropy"], 0, ""),
    (["zeta", "--tau", "1/2", "--counts"], 2, "error: K is not a maximal stream\n"),
    (["dyn", "kneading", "--r", "5"], 2,
     "error: critical value outside [0, 1]: 1.25\n"),
    (["zeta", "--tau", "6/7", "--order", "2049"], 2,
     "error: order must be in 1..2048\n"),
    (["zeta", "--tau", "1/2", "--entropy"], 2, "error: K is not a maximal stream\n"),
    (["zeta", "--tau", "1/3", "--entropy"], 2, "error: K is not a maximal stream\n"),
    (["reproduce", "all", "--out", "missing/"], 2,
     "error: no such output directory: missing/\n"),
    (["export", "frequency-convergence", "--out", "missing/x.csv"], 2,
     "error: no such output directory: missing\n"),
    (["export", "zeta-roots", "--out", "."], 2,
     "error: output path is a directory: .\n"),
    (["tau", "--infinity", "--bits", "65537"], 2, "error: bits must be in 1..65536\n"),
    (["cf", "tau-infinity", "--bits", "65537"], 2, "error: bits must be in 1..65536\n"),
    (["export", "zeta-roots", "--j", "12"], 2, "error: j must be in 0..11\n"),
    (["export", "zeta-roots", "--j", "-1"], 2, "error: j must be in 0..11\n"),
    (["tau", "--infinity", "--bits", "0"], 2, "error: bits must be in 1..65536\n"),
    (["tau", "--j", "3", "--format", "yaml"], 2,
     "kneading tau: error: argument --format: invalid choice: 'yaml'"),
    (["zeta", "--tau", "6/7", "--order", "0"], 2, "error: order must be in 1..2048\n"),
    (["reproduce", "all", "--seed", "1"], 2,
     "kneading: error: unrecognized arguments: --seed 1\n"),
    (["zeta", "--tau", "1/0"], 2, "error: zero denominator: 1/0\n"),
    (["zeta", "--tau", "6/7", "--entropy", "--tol", "1/0"], 2,
     "error: zero denominator: 1/0\n"),
    (["dyn", "lemma1", "--pairs", "-1"], 2, "error: pairs must be >= 0\n"),
    (["zeta", "--tau", "feigenbaum:15"], 2, "error: level must be in 1..14\n"),
    (["zeta", "--tau", "feigenbaum:inf", "--order", "64", "--entropy", "--tol", "4/3"], 2,
     "error: tolerance must be below 4/3\n"),
    (["dyn", "kneading", "--eta", "nan"], 2, "error: reliability band must be positive\n"),
    (["dyn", "kneading", "--r", "nan"], 2, "error: endpoints must map to 0\n"),
    (["dyn", "kneading", "--family", "tent", "--slope", "nan"], 2,
     "error: endpoints must map to 0\n"),
    (["dyn", "scan", "--from", "nan"], 2, "error: grid must stay within [2.9, 4.0]\n"),
    (["lang", "forbidden", "--tau", "6/7", "--nmax", "4097"], 2,
     "error: nmax must be at most 4096\n"),
    (["zeta", "--tau", "feigenbaum:inf", "--order", "64", "--entropy", "--tol",
      f"1/{10 ** 100 + 1}"], 2, "error: tolerance must be at least 1/10^100\n"),
    (["dyn", "lemma1", "--pairs", "0", "--n", "0"], 2, "error: need at least one symbol\n"),
    (["zeta", "--tau", "1/4294967311", "--order", "8"], 2,
     "error: denominator must be at most 1048576\n"),
    (["cf", "table", "--jmax", "2", "--out", "x" * 300 + ".csv"], 2,
     "error: cannot write " + "x" * 300 + ".csv: File name too long\n"),
    (["lang", "complexity", "--tau", "6/7", "--nmax", "25"], 2,
     "error: nmax must be at most 24\n"),
    (["zeta", "--tau", "feigenbaum:x"], 2, "error: level must be in 1..14\n"),
    (["zeta", "--tau", "feigenbaum:"], 2, "error: level must be in 1..14\n"),
    (["dyn", "lemma1", "--r", "4.1"], 2,
     "error: orbit left [0, 1] at step 11: 1.023736001960129\n"),
    (["zeta", "--tau", "1e-10000000"], 2, "error: exponent must be in -1000..1000\n"),
    (["zeta", "--tau", "6/7", "--entropy", "--tol", "1e-10000000"], 2,
     "error: exponent must be in -1000..1000\n"),
    (["zeta", "--tau", "1/" + "7" * 5000], 2,
     "error: numbers must have at most 4300 digits\n"),
    (["zeta", "--tau", "6/7", "--entropy", "--tol", "abc"], 2,
     "error: Invalid literal for Fraction: 'abc'\n"),
    (["dyn", "scan", "--family", "tent"], 2, "error: dyn scan does not read --family\n"),
    (["dyn", "scan", "--eta", "1e-3"], 2, "error: dyn scan does not read --eta\n"),
    (["dyn", "scan", "--eta", "nan"], 2, "error: dyn scan does not read --eta\n"),
    (["dyn", "kneading", "--slope", "1.5"], 2,
     "error: dyn kneading of the logistic family does not read --slope\n"),
    (["dyn", "lemma1", "--family", "tent", "--r", "3.9", "--float"], 2,
     "error: dyn lemma1 of the tent family does not read --float, --r\n"),
    (["dyn", "scan", "--n", "0"], 2, "error: need at least one symbol\n"),
    (["dyn", "scan", "--n", "-4"], 2, "error: need at least one symbol\n"),
    (["export", "bifurcation-scan", "--n", "0"], 2, "error: need at least one symbol\n"),
    (["tau", "--j", "3", "--bits", "0"], 2, "error: tau --j does not read --bits\n"),
    (["cf", "tau-level", "--j", "3", "--bits", "7", "--jmax", "2"], 2,
     "error: cf tau-level does not read --bits, --jmax\n"),
    (["zeta", "--tau", "6/7", "--tol", "abc"], 2,
     "error: zeta without --entropy does not read --tol\n"),
    (["lang", "forbidden", "--tau", "6/7", "--mode", "core"], 2,
     "error: lang forbidden does not read --mode\n"),
    (["reproduce", "all", "--format", "csv", "--float"], 2,
     "error: reproduce does not read --format, --float\n"),
    (["export", "zeta-roots", "--j", "1", "--steps", "5", "--kmin", "3", "--float"], 2,
     "error: export zeta-roots does not read --float, --steps, --kmin\n"),
    # an option the mode does not read is refused before its value is read;
    # one it reads keeps argparse's usage lines and reason
    (["cf", "table", "--bits", "x"], 2, "error: cf table does not read --bits\n"),
    (["cf", "tau-infinity", "--bits", "x"], 2,
     "kneading cf: error: argument --bits/--precision-bits: invalid int value: 'x'\n"),
    # an empty --out names no file: refused, not read as "no --out"
    (["dyn", "kneading", "--n", "3", "--out", ""], 2, "error: --out must not be empty\n"),
    (["cf", "table", "--jmax", "2", "--out", ""], 2, "error: --out must not be empty\n"),
    (["lang", "forbidden", "--tau", "6/7", "--out", ""], 2,
     "error: --out must not be empty\n"),
    (["export", "zeta-roots", "--j", "0", "--out", ""], 2,
     "error: --out must not be empty\n"),
    (["reproduce", "nj-sequence", "--out", ""], 2, "error: --out must not be empty\n"),
    (["lang", "forbidden", "--tau", "1/2", "--nmax", "3"], 2,
     "error: K is not a maximal stream\n"),
    # decreases counts the falls of tau as r grows, so a grid walks upwards
    (["dyn", "scan", "--from", "4", "--to", "3", "--steps", "3", "--n", "5"], 2,
     "error: need --from <= --to\n"),
    (["export", "bifurcation-scan", "--from", "4", "--to", "3", "--steps", "3", "--n", "5"],
     2, "error: need --from <= --to\n"),
    # two faults: the caps of the options a mode reads are checked with the
    # option rule, before the handler parses --tol or relates two options
    (["zeta", "--tau", "6/7", "--order", "0", "--entropy", "--tol", "1/0"], 2,
     "error: order must be in 1..2048\n"),
    (["zeta", "--tau", "6/7", "--order", "0", "--entropy", "--tol", "abc"], 2,
     "error: order must be in 1..2048\n"),
    (["dyn", "scan", "--steps", "1", "--n", "300"], 2, "error: n must be at most 256\n"),
    (["export", "bifurcation-scan", "--steps", "1", "--n", "300"], 2,
     "error: n must be at most 256\n"),
    (["export", "frequency-convergence", "--kmin", "70", "--kmax", "65"], 2,
     "error: kmax must be at most 62\n"),
])
def test_documented_inputs_exit_cleanly(capsys, monkeypatch, tmp_path, argv, code, err):
    monkeypatch.chdir(tmp_path)  # an empty directory: "missing" is missing
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if captured.err.startswith("usage: "):
        # argparse: usage lines, then the reason; how it lists the choices
        # of --format depends on the Python version, so that row gives a prefix
        assert captured.err.splitlines(keepends=True)[-1].startswith(err)
    else:
        assert captured.err == err
    assert not list(tmp_path.iterdir())  # no output and no temporary file
    if code == 0:
        ent = json.loads(captured.out)["entropy"]
        assert ent == {"lo": 0.0, "hi": 0.0, "method": "unit-root-factors",
                       "bracket": None}
    else:
        assert captured.out == ""


# each subcommand and mode, as the words that select it, with its label and
# the options it reads besides those words; written out apart from the read
# lists in kneading.commands
_MODES = [
    ("tau --j 3", "tau --j", "--format --float"),
    ("tau --infinity", "tau --infinity", "--format --bits"),
    ("cf tau-level", "cf tau-level", "--format --j --out"),
    ("cf tau-infinity", "cf tau-infinity", "--format --bits --out"),
    ("cf table", "cf table", "--format --jmax --out"),
    ("zeta --tau 6/7", "zeta without --entropy", "--format --order --counts"),
    ("zeta --tau 6/7 --entropy", "zeta --entropy",
     "--format --float --order --counts --tol"),
    ("lang complexity --tau 6/7", "lang complexity", "--format --nmax --mode --out"),
    ("lang forbidden --tau 6/7", "lang forbidden", "--format --nmax --out"),
    ("freq", "freq", "--format --float --stream --block --prefix --aligned"),
    ("dyn kneading --family logistic", "dyn kneading of the logistic family",
     "--format --r --eta --n --out"),
    ("dyn kneading --family tent", "dyn kneading of the tent family",
     "--format --slope --eta --n --out"),
    ("dyn lemma1 --family logistic", "dyn lemma1 of the logistic family",
     "--format --r --eta --n --pairs --seed --out"),
    ("dyn lemma1 --family tent", "dyn lemma1 of the tent family",
     "--format --slope --eta --n --pairs --seed --out"),
    ("dyn scan", "dyn scan", "--format --from --to --steps --n --out"),
    ("reproduce nj-sequence", "reproduce", "--out"),
    ("export zeta-roots", "export zeta-roots", "--format --j --out"),
    ("export bifurcation-scan", "export bifurcation-scan",
     "--format --from --to --steps --n --out"),
    ("export frequency-convergence", "export frequency-convergence",
     "--format --float --kmin --kmax --out"),
]
# options that select another mode of the same words, so are never refused
_SELECTS = {"tau --j 3": "--infinity", "tau --infinity": "--j",
            "zeta --tau 6/7": "--entropy"}
# a value for each option that takes one, valid in every mode that reads it
_VALUES = {"--format": "json", "--j": "3", "--bits": "64", "--jmax": "3",
           "--tau": "6/7", "--order": "8", "--tol": "1/1000", "--nmax": "6",
           "--mode": "core", "--stream": "feigenbaum", "--block": "1", "--prefix": "64",
           "--family": "logistic", "--r": "3.9", "--slope": "2", "--eta": "1e-9",
           "--n": "16", "--from": "3.5", "--to": "4.0", "--steps": "5", "--pairs": "10",
           "--seed": "1", "--kmin": "3", "--kmax": "5", "--out": "out"}


def test_every_mode_refuses_every_option_it_does_not_read(capsys, monkeypatch, tmp_path):
    # walk the parser: every option of a subcommand that a mode does not
    # read exits 2 with a one-line reason and writes nothing; the options it
    # reads, passed all at once, run; and each option a subcommand adds
    # beside the common --format and --float is read by some mode of it
    monkeypatch.chdir(tmp_path)
    parser = cli._build_parser(_ALL_COMMANDS)
    subs = parser._subparsers._group_actions[0].choices
    read = {name: set() for name in _ALL_COMMANDS}
    walked = 0
    for words, label, reads in _MODES:
        head = words.split()
        actions = [a for a in subs[head[0]]._actions if a.option_strings and a.dest != "help"]
        read[head[0]] |= set(reads.split()) | {w for w in head if w.startswith("--")}
        every_read = list(head)
        for a in actions:
            flag = a.option_strings[0]
            option = [flag] + ([_VALUES[flag]] if a.nargs != 0 else [])
            if flag in head or flag in _SELECTS.get(words, "").split():
                continue
            if flag in reads.split():
                every_read += option
                continue
            assert cli.main(head + option) == 2, (words, flag)
            assert capsys.readouterr() == ("", f"error: {label} does not read {flag}\n")
            walked += 1
        assert not list(tmp_path.iterdir())
        out = "--out" in reads.split()
        if head[0] == "reproduce":
            every_read[every_read.index("out")] = "."
        assert cli.main(every_read) == 0, every_read
        captured = capsys.readouterr()
        assert captured.err == "" and bool(captured.out) == (head[0] == "reproduce" or not out)
        files = list(tmp_path.iterdir())
        assert len(files) == out
        for path in files:
            assert json.loads(path.read_text())
            path.unlink()
    for name, sub in subs.items():
        flags = {a.option_strings[0] for a in sub._actions
                 if a.option_strings and a.dest != "help"}
        assert flags - {"--format", "--float"} <= read[name] <= flags, name
    assert walked == 2 + 9 + 2 + 3 + 31 + 2 + 16


# Every cap on the command line, one row each of README's "Resource caps"
# table: its first column and accepted range as the table writes them; the
# CAPS entries it covers, as "module dest" (lang's as "lang mode dest") with
# the (label, lo, hi) each must hold, or none where _spec, zeta's --tol check
# or a layer checks the bound; the bench/caps.py row that runs at the cap and
# the argument of that row that puts it there; and an input one past the cap
# with its refusal.  Written out apart from the library, as _MODES is.
_CAPS_TABLE = [
    ("`tau --j`", "1..20", {"tau j": ("level", 1, 20)},
     "tau --j 20", "20", "tau --j 21", "level must be in 1..20"),
    ("`tau --infinity --bits`", "1..65536", {"tau bits": ("bits", 1, 65536)},
     "tau --infinity bits 65536", "65536", "tau --infinity --bits 65537",
     "bits must be in 1..65536"),
    ("`cf tau-level --j`", "1..12", {"cf j": ("level", 1, 12)},
     "cf tau-level --j 12", "12", "cf tau-level --j 13", "level must be in 1..12"),
    ("`cf tau-infinity --bits`", "1..65536", {"cf bits": ("bits", 1, 65536)},
     "cf tau-infinity bits 65536", "65536", "cf tau-infinity --bits 65537",
     "bits must be in 1..65536"),
    ("`cf table --jmax`", "1..12", {},
     "cf table --jmax 12", "12", "cf table --jmax 13", "jmax must be in 1..12"),
    ("`zeta --order`", "1..2048", {"zeta order": ("order", 1, 2048)},
     "zeta --tau feigenbaum:inf --order 2048 --counts", "2048",
     "zeta --tau 6/7 --order 2049", "order must be in 1..2048"),
    ("`zeta --entropy --tol`", "1/10^100 and up, below 4/3", {},
     "zeta --tau feigenbaum:inf --order 2048 --entropy --tol 1/10^100", f"1/{10 ** 100}",
     f"zeta --tau 6/7 --entropy --tol 1/{10 ** 100 + 1}",
     "tolerance must be at least 1/10^100"),
    ("`--tau p/q` (`zeta`, `lang`)", "denominator 1..2^20 (1048576)", {},
     "tau stream 1048572/1048573", "1048572/1048573", "zeta --tau 1/1048577",
     "denominator must be at most 1048576"),
    ("`--tau feigenbaum:j` (`zeta`, `lang`)", "1..14", {},
     "zeta --tau feigenbaum:14 --entropy", "feigenbaum:14", "lang forbidden --tau feigenbaum:15",
     "level must be in 1..14"),
    ("exponent of an exact number (`--tau p/q`, `zeta --entropy --tol`)", "-1000..1000", {},
     "zeta --tau 1e-1000 --order 4", "1e-1000", "zeta --tau 6/7 --entropy --tol 1e-1001",
     "exponent must be in -1000..1000"),
    ("`lang complexity --nmax`", "1..24", {},
     "lang complexity 1018/1019 core nmax 24", "24", "lang complexity --tau 6/7 --nmax 25",
     "nmax must be at most 24"),
    ("`lang forbidden --nmax`", "1..4096", {"lang forbidden nmax": ("nmax", None, 4096)},
     "lang forbidden --tau feigenbaum:inf --nmax 4096", "4096",
     "lang forbidden --tau 6/7 --nmax 4097", "nmax must be at most 4096"),
    ("`freq --prefix`", "1..2^62 (4611686018427387904)",
     {"freq prefix": ("prefix", None, 1 << 62)},
     "freq --block 64 --prefix 4611686018427387904", "4611686018427387904",
     "freq --prefix 4611686018427387905", "prefix must be at most 4611686018427387904"),
    ("`freq --block`", "1..64", {"freq block": ("block", None, 64)},
     "freq feigenbaum block 64 prefix 2^22", "64", "freq --block 65",
     "block must be at most 64"),
    ("`export frequency-convergence --kmax`", "kmin..62", {"export kmax": ("kmax", None, 62)},
     "export frequency-convergence --kmax 62", "62", "export frequency-convergence --kmax 63",
     "kmax must be at most 62"),
    ("`export zeta-roots --j`", "0..11", {"export j": ("j", 0, 11)},
     "export zeta-roots --j 11", "11", "export zeta-roots --j 12", "j must be in 0..11"),
    ("`dyn --n`, `export bifurcation-scan --n`", "1..256", {"dyn n": ("n", None, 256)},
     "dyn scan steps 4096 n 256", "256", "export bifurcation-scan --n 257",
     "n must be at most 256"),
    ("`dyn scan --steps`, `export bifurcation-scan --steps`", "2..4096",
     {"dyn steps": ("steps", None, 4096)},
     "dyn scan steps 4096 n 256", "4096", "export bifurcation-scan --steps 4097",
     "steps must be at most 4096"),
    ("`dyn lemma1 --pairs`", "0..4096", {"dyn pairs": ("pairs", None, 4096)},
     "dyn lemma1 --family tent --slope 2.000000000001 --pairs 4096 --n 256", "4096",
     "dyn lemma1 --pairs 4097", "pairs must be at most 4096"),
]


_ROOT = Path(__file__).resolve().parent.parent


def _readme_caps_table() -> dict:
    """README's "Resource caps" table, as its first column to its range and
    its bench/caps.py row, without the backticks around the row."""
    readme = (_ROOT / "README.md").read_text()
    lines = readme[readme.index("Resource caps:"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        column, range_, _, row = (cell.strip() for cell in line.strip("|").split(" | "))
        rows[column] = (range_, row.strip("`"))
    return rows


def test_every_cap_is_documented_and_timed(capsys):
    # each command module's CAPS holds exactly the entries of the table
    caps = {}
    for name in _ALL_COMMANDS:
        module = importlib.import_module(f"kneading.commands.{name}")
        for key, value in getattr(module, "CAPS", {}).items():
            # lang's CAPS maps each mode to a mapping of its own
            if isinstance(value, dict):
                caps.update({f"{name} {key} {dest}": cap for dest, cap in value.items()})
            else:
                caps[f"{name} {key}"] = value
    assert caps == {k: v for row in _CAPS_TABLE for k, v in row[2].items()}
    readme = _readme_caps_table()
    assert list(readme) == [row[0] for row in _CAPS_TABLE]
    spec = importlib.util.spec_from_file_location("bench_caps", _ROOT / "bench" / "caps.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench_rows = {name: tuple(map(str, args)) for name, _, args in bench.ROWS}
    for column, range_, entries, bench_row, at_cap, refused, error in _CAPS_TABLE:
        for label, lo, hi in entries.values():
            # the range, the row and the refusal all sit at the CAPS bound
            assert at_cap == str(hi) and str(hi) in range_, column
            assert lo is None or range_.startswith(f"{lo}.."), column
            assert error == (f"{label} must be at most {hi}" if lo is None
                             else f"{label} must be in {lo}..{hi}"), column
        assert readme[column] == (range_, bench_row), column
        assert at_cap in bench_rows[bench_row], column
        assert cli.main(refused.split()) == 2, refused
        assert capsys.readouterr() == ("", f"error: {error}\n"), refused


class _Refusing:
    """A stream whose every write fails as the system would fail it."""

    def __init__(self, err):
        self.err = err

    def write(self, text):
        raise OSError(self.err, os.strerror(self.err))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def test_refused_output_is_not_blamed_on_input_or_code(capsys, monkeypatch, tmp_path):
    # a closed stdout (a reader such as `head` that went away) and a full
    # disk fail the environment: exit 3 with a one-line reason, never the
    # "internal error" of a bug, and no temporary file left behind
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", _Refusing(errno.EPIPE))
        assert cli.main(["tau", "--j", "3"]) == 3
    assert capsys.readouterr().err == "error: cannot write output: Broken pipe\n"
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: (
        os.close(fd), _Refusing(errno.ENOSPC))[1])
    assert cli.main(["cf", "table", "--jmax", "2", "--out", str(tmp_path / "t.csv")]) == 3
    assert capsys.readouterr().err == (
        "error: cannot write output: No space left on device\n")
    assert not list(tmp_path.iterdir())


def test_out_needs_no_stdout(monkeypatch, tmp_path):
    # started with fd 1 not open (`kneading ... >&-`), Python sets stdout
    # to None; a command that writes only its --out file still exits 0
    monkeypatch.setattr(sys, "stdout", None)
    out = tmp_path / "roots.csv"
    assert cli.main(["export", "zeta-roots", "--j", "2", "--out", str(out)]) == 0
    assert out.read_text()


@pytest.mark.parametrize("argv, code, err", [
    ("tau --j 3", 3, "error: cannot write output: Bad file descriptor\n"),
    ("reproduce tau-table", 3, "error: cannot write output: Bad file descriptor\n"),
    ("tau --j 0", 2, "error: level must be in 1..20\n"),
    ('dyn kneading --n 3 --out ""', 2, "error: --out must not be empty\n"),
    ('reproduce nj-sequence --out ""', 2, "error: --out must not be empty\n"),
])
def test_missing_stdout_refuses_output_not_input(capsys, monkeypatch, argv, code, err):
    # started with fd 1 not open, a command that prints is refused as a
    # closed stdout is: print() would drop reproduce's lines (exit 0 with no
    # output) and a write to None would be reported as an internal error;
    # bad input is still reported as such
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(shlex.split(argv)) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv", ["tau --j 3", "tau --j 14", "--help", "tau --help"])
def test_closed_stdout_exits_3_at_any_output_size(argv):
    # stdout a pipe whose reader went away, buffered as in a shell: the
    # small output of tau --j 3 waits in the buffer and fails at main's
    # flush, the large one of tau --j 14 fails its write, and argparse's help
    # text is flushed by main too; none may reach the interpreter's final
    # flush, whose failure prints a traceback and exits 120
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "kneading.cli", *argv.split()],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (3, "error: cannot write output: Broken pipe\n")


# a handler registered before the command runs; atexit runs handlers last
# in, first out, so it runs after the freeze that main registers
_EXIT_RUN = """
import atexit, gc, sys
atexit.register(lambda: sys.stderr.write(f"frozen at exit: {gc.get_freeze_count() > 0}\\n"))
entry = sys.argv.pop(1)
if entry == "python -m":
    import runpy
    runpy.run_module("kneading.cli", run_name="__main__")
else:
    import kneading.cli
    sys.exit(kneading.cli.main())
"""


@pytest.mark.parametrize("entry", ["python -m", "console script"])
@pytest.mark.parametrize("argv, code", [("tau --j 3", 0), ("tau --j 0", 2)])
def test_exit_freezes_the_heap_and_keeps_the_result(capsys, entry, argv, code):
    # both entry paths freeze the heap at exit and still run the atexit
    # handlers registered before them; the command prints and exits as it
    # does through cli.main in this process
    assert cli.main(argv.split()) == code
    out, err = capsys.readouterr()
    done = subprocess.run([sys.executable, "-c", _EXIT_RUN, entry, *argv.split()],
                          env=_child_env(), capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (
        code, out, err + "frozen at exit: True\n")


# Every subcommand at its documented boundaries: each cap and one past it,
# the smallest accepted value and one below, and malformed --tau; freq
# --prefix and export frequency-convergence --kmax keep their old caps, 2^22
# and 25, as rows too.  Bad input
# exits 2, never 3 (a bug here) or with an escaping exception.  The slowest
# cases, export zeta-roots at j = 11 and zeta --order 2048 --counts, take
# under 2 s on a 2-core Xeon.
_EDGE_SECONDS = 10.0
_EDGE_CASES = [line.split() for line in """\
tau --j 0|tau --j 1|tau --j 20|tau --j 21|tau --j 3 --bits 0
tau --infinity --bits 0|tau --infinity --bits 1|tau --infinity --bits 65536
tau --infinity --bits 65537|cf tau-level --j 0|cf tau-level --j 1
cf tau-level --j 12|cf tau-level --j 13|cf tau-infinity --bits 0
cf tau-infinity --bits 1|cf tau-infinity --bits 65536|cf tau-infinity --bits 65537
cf table --jmax 0|cf table --jmax 1|cf table --jmax 12|cf table --jmax 13
zeta --tau 6/7 --order 0|zeta --tau 6/7 --order 1 --counts --entropy
zeta --tau 6/7 --order 2048 --counts|zeta --tau 6/7 --order 2049
zeta --tau feigenbaum:0|zeta --tau feigenbaum:|zeta --tau feigenbaum:x
zeta --tau feigenbaum:inf --order 64 --counts --entropy|zeta --tau 1/0
zeta --tau abc|zeta --tau 2|zeta --tau 0 --counts --entropy
zeta --tau 6/7 --entropy --tol 0|zeta --tau 6/7 --entropy --tol 1/0
lang complexity --tau 1 --nmax 0|lang complexity --tau 1 --nmax 1
lang complexity --tau 1 --nmax 24|lang complexity --tau 1 --nmax 25
lang forbidden --tau 6/7 --nmax 0|lang forbidden --tau 6/7 --nmax 1
lang forbidden --tau 1 --nmax 24|lang complexity --tau feigenbaum:0
lang complexity --tau 1/2|lang forbidden --tau 3/0|lang forbidden --tau abc
freq --prefix 0|freq --prefix 1|freq --block 0|freq --block 2 --prefix 1
freq --stream tau-inf --block 2 --aligned --prefix 2
dyn kneading --n 0|dyn kneading --n 1|dyn kneading --r 4|dyn kneading --r 4.1
dyn kneading --eta 0|dyn kneading --family tent --slope 0
dyn scan --steps 1|dyn scan --steps 2|dyn scan --steps 2 --from 2.8
dyn scan --n 0|dyn scan --n 1|dyn scan --n -4|export bifurcation-scan --n 0
dyn lemma1 --pairs 0|dyn lemma1 --pairs 1|dyn lemma1 --n 0
reproduce all|reproduce nj-sequence
export zeta-roots --j -1|export zeta-roots --j 0|export zeta-roots --j 11
export zeta-roots --j 12|export bifurcation-scan --steps 1
export bifurcation-scan --steps 2|export frequency-convergence --kmin 5 --kmax 4
export frequency-convergence --kmin 0|export frequency-convergence --kmin 1 --kmax 1
zeta --tau feigenbaum:14 --order 8 --counts --entropy|zeta --tau feigenbaum:15
lang complexity --tau feigenbaum:15
freq --prefix 4194304|freq --prefix 4194305|freq --block 64|freq --block 65
freq --prefix 4611686018427387904|freq --prefix 4611686018427387905
freq --stream tau-inf --block 64 --aligned --prefix 4611686018427387904
export frequency-convergence --kmax 25|export frequency-convergence --kmax 26
export frequency-convergence --kmax 62|export frequency-convergence --kmax 63
dyn kneading --n 256|dyn kneading --n 257|dyn scan --steps 4096|dyn scan --steps 4097
dyn lemma1 --pairs 4096|dyn lemma1 --pairs 4097|export bifurcation-scan --n 256
export bifurcation-scan --n 257
zeta --tau feigenbaum:inf --order 2048 --entropy
zeta --tau 1048572/1048573 --order 8|zeta --tau 1/1048577 --order 8
zeta --tau 1/4294967311 --order 8|zeta --tau 1e-30 --order 4
""".replace("\n", "|").split("|") if line] + [
    ["zeta", "--tau", ""], ["lang", "forbidden", "--tau", ""],
    "zeta --tau feigenbaum:inf --order 64 --entropy --tol 4/3".split(),
    "zeta --tau feigenbaum:inf --order 64 --entropy --tol 2".split(),
    "dyn kneading --eta nan".split(), "dyn kneading --r nan".split(),
    "dyn kneading --family tent --slope nan".split(), "dyn scan --from nan".split(),
    ["zeta", "--tau", "feigenbaum:inf", "--order", "64", "--entropy", "--tol",
     f"{4 * 10 ** 400 - 3}/{3 * 10 ** 400}"],
    "lang forbidden --tau 6/7 --nmax 4096".split(),
    "lang forbidden --tau 6/7 --nmax 4097".split(),
    ["zeta", "--tau", "feigenbaum:inf", "--order", "64", "--entropy", "--tol",
     f"1/{10 ** 100}"],
    ["zeta", "--tau", "feigenbaum:inf", "--order", "64", "--entropy", "--tol",
     f"1/{10 ** 100 + 1}"],
    "zeta --tau 1e-1000 --order 4".split(), "zeta --tau 1e-1001 --order 4".split(),
    "zeta --tau 6/7 --tol 1e-10000000".split()]


@pytest.mark.parametrize("argv", _EDGE_CASES, ids=" ".join)
def test_edge_inputs_exit_cleanly(capsys, argv):
    t0 = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code == 2:
        lines = err.splitlines()
        # a one-line reason, or argparse's usage lines and its reason
        assert lines[-1].startswith("error: ") if len(lines) == 1 else (
            err.startswith("usage: ") and ": error: " in lines[-1]), err
    assert elapsed < _EDGE_SECONDS
