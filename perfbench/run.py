"""End-to-end and per-layer benchmark of the ``kneading`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 20 --trace 0

Workloads are ``cascade``, ``subshift`` and ``orbit-lab`` (see workloads.py),
or ``all`` to run the three in turn.  ``--seed`` fixes the generated commands.

``--trace 0`` is the end-to-end run.  One client runs the round's commands one
after another, each as a fresh ``python -m kneading.cli`` process with ``src``
on PYTHONPATH, and waits for each to exit (a closed loop with one client, no
threads).  The round repeats until ``--seconds`` have passed.  Reported:

  setup_s      median wall time of ``import kneading.cli`` in a fresh interpreter
  wall_s       wall time of one round, median over rounds
  cpu_s        user + system CPU of one round's child processes (os.wait4)
  op_p50_s     median command latency, commands that completed
  op_tail_s    per round, the latency with exactly ten commands above it (the
               percentile is printed), median over rounds
  peak_rss_mb  largest child ru_maxrss

Times are scaled to a fixed reference machine speed, measured by starting a
bare interpreter before each command (see PROBE); unscaled values are printed
and recorded too.

``--trace 1`` replays the same round in this process through
``kneading.cli.main(argv)``, in passes until ``--seconds`` have passed; a
pass runs each command untraced and traced, back to back.  It reports
per-layer self time, calls, failures and work counts from the traced runs (see
tracing.py), plus ``trace.overhead_frac``: traced over untraced time of a
pass, minus one, median over passes.

Every command's output is checked by oracle.py.  Documented inputs that fail
at the baseline are counted as known failures when they fail in the recorded
way; ``ops_failed_frac`` counts them with every other failure.  The last line
of stdout is one JSON object: correct, attempted, failed (commands that failed
other than in the recorded way) and metrics.  A full record, with per-command
stdout digests and one digest per round, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SRC = "src"
RESULTS = os.path.join(HERE, "results")
SETUP_SAMPLES = 15
# Time metrics are scaled to a fixed reference machine speed.  A shared host
# changes speed by 10-30% within seconds (other tenants), which moves every
# timing together: over ten seeds the unscaled times spread 0.07-0.35 of their
# median (IQR over median), the scaled ones 0.01-0.09.  Before each command
# the benchmark starts a bare interpreter (PROBE: no site, no kneading) and
# reads its wall and CPU time with os.wait4.  A wall time is multiplied by
# REF_PROBE_WALL_S over the median wall time of the probes around it, a CPU
# time by REF_PROBE_CPU_S over their median CPU time.  The references are the
# probe's medians on a 2-core Intel Xeon host with Python 3.11.7, so a scaled
# time reads as seconds on that host.
PROBE = ["-S", "-c", "pass"]
REF_PROBE_WALL_S = 0.011
REF_PROBE_CPU_S = 0.0107
PROBE_WINDOW = 5
COMMAND_TIMEOUT_S = 30.0
TAIL_BEYOND = 10

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s",
             "op_tail_s": "s", "peak_rss_mb": "MB"}

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import kneading.cli; "
                 "print(time.perf_counter() - t)")


# ------------------------------------------------------------ environment

def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the benchmark
    may run in an export that is not a repository)."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# ------------------------------------------------------- child processes

class Child:
    """One finished child process: exit code, times, memory, captured output."""

    def __init__(self, rc, wall, cpu, maxrss_kb, timed_out, stdout, stderr):
        self.rc, self.wall, self.cpu, self.maxrss_kb = rc, wall, cpu, maxrss_kb
        self.timed_out, self.stdout, self.stderr = timed_out, stdout, stderr


def spawn(args: list[str], workdir: str) -> Child:
    """Run ``python <args>`` and wait for it, killing it after COMMAND_TIMEOUT_S;
    stdout/stderr go to files."""
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], _child_env(),
                         file_actions=actions)
    fd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([fd], [], [], COMMAND_TIMEOUT_S)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    finally:
        os.close(fd)
    timed_out = not ready
    if timed_out:
        os.kill(pid, signal.SIGKILL)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime,
                 ru.ru_maxrss, timed_out, stdout, stderr)


def measure_setup(workdir: str) -> tuple[list[float], list[float]]:
    """Import times of kneading.cli in fresh interpreters, each with the probe
    wall time taken just before it.  The first import, which may write
    bytecode caches, is not counted."""
    samples, probes = [], []
    for i in range(SETUP_SAMPLES + 1):
        wall = spawn(PROBE, workdir).wall
        child = spawn(["-c", _IMPORT_PROBE], workdir)
        if child.rc != 0:
            raise RuntimeError(f"cannot import kneading.cli: {child.stderr.strip()[-300:]}")
        if i:
            samples.append(float(child.stdout))
            probes.append(wall)
    return samples, probes


# ----------------------------------------------------------- one command

def resolve(argv: list[str], outdir: str) -> tuple[list[str], dict]:
    """Point @OUT/ arguments into ``outdir``; returns argv and {given: real} paths.
    An argument ending in ``/`` names an output directory, which is created."""
    real, paths = [], {}
    for a in argv:
        if a.startswith("@OUT/"):
            p = os.path.join(outdir, a[5:])
            if a.endswith("/"):
                os.makedirs(p, exist_ok=True)
            paths[a] = p
            a = p
        real.append(a)
    return real, paths


def read_outputs(paths: dict) -> dict:
    """Contents of the output files, keyed by the given name (for a directory,
    the given name plus the file name); the files are removed."""
    files = {}
    for given, p in paths.items():
        if given.endswith("/"):
            for name in sorted(os.listdir(p)):
                files.update(read_outputs({given + name: os.path.join(p, name)}))
            os.rmdir(p)
            continue
        with contextlib.suppress(OSError):
            with open(p, encoding="utf-8") as fh:
                files[given] = fh.read()
            os.unlink(p)
    return files


def digest(stdout: str, files: dict) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(files):
        h.update(f"\0{name}\0".encode())
        h.update(files[name].encode())
    return h.hexdigest()


class Record:
    """Per-command result across rounds, keyed by position in the round."""

    def __init__(self, argv):
        self.argv = argv
        self.outcome = None
        self.detail = ""
        self.digest = None
        self.latencies = []

    def settle(self, rc, stdout, stderr, files, timed_out):
        """Check the first output with the oracle; later ones must repeat it."""
        d = digest(stdout, files)
        if timed_out:
            self.outcome, self.detail = "failed", "timeout"
        elif self.digest is None:
            self.outcome, self.detail = oracle.check(self.argv, rc, stdout, stderr, files)
        elif d != self.digest and self.outcome != "failed":
            self.outcome, self.detail = "failed", "output differs between repetitions"
        if self.digest is None:
            self.digest = d

    def as_json(self):
        return {"argv": self.argv, "outcome": self.outcome, "detail": self.detail,
                "stdout_sha256": self.digest, "latencies_s": self.latencies}


def round_digest(records) -> str:
    h = hashlib.sha256()
    for r in records:
        h.update(f"{' '.join(r.argv)}\0{r.digest}\n".encode())
    return h.hexdigest()


def tally(records, repeats: int) -> dict:
    known = sum(r.outcome == "known-failure" for r in records)
    failed = sum(r.outcome == "failed" for r in records)
    n = len(records)
    return {"attempted": n * repeats, "failed": failed * repeats,
            "known_failures": known * repeats,
            "ops_failed_frac": (known + failed) / n}


# -------------------------------------------------------- end-to-end run

def speed_scale(probes: list[float], ref: float) -> list[float]:
    """Per-sample factor from the machine's speed to the reference speed: ``ref``
    over the median of the probe times around the sample."""
    h = PROBE_WINDOW // 2
    return [ref / statistics.median(probes[max(0, i - h):i + h + 1])
            for i in range(len(probes))]


def run_e2e(cmds, seconds: float, workdir: str) -> tuple[dict, dict]:
    setup, setup_probes = measure_setup(workdir)
    records = [Record(a) for a in cmds]
    samples = []      # (round, wall, cpu, timed out) per command run
    probes = []       # (wall, cpu) of the probe before each command run
    peak_kb = 0
    rounds = 0
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        for rec in records:
            argv, paths = resolve(rec.argv, workdir)
            probe = spawn(PROBE, workdir)
            probes.append((probe.wall, probe.cpu))
            child = spawn(["-m", "kneading.cli", *argv], workdir)
            rec.settle(child.rc, child.stdout, child.stderr, read_outputs(paths),
                       child.timed_out)
            rec.latencies.append(child.wall)
            peak_kb = max(peak_kb, child.maxrss_kb)
            samples.append((rounds, child.wall, child.cpu, child.timed_out))
        rounds += 1

    def summarize(wall_scale, cpu_scale):
        wall, cpu = [0.0] * rounds, [0.0] * rounds
        done = [[] for _ in range(rounds)]
        for (r, w, c, timed_out), kw, kc in zip(samples, wall_scale, cpu_scale):
            wall[r] += w * kw
            cpu[r] += c * kc
            if not timed_out:
                done[r].append(w * kw)
        rank = len(cmds) - 1 - TAIL_BEYOND
        return {
            "wall_s": statistics.median(wall),
            "cpu_s": statistics.median(cpu),
            "op_p50_s": statistics.median(x for d in done for x in d),
            "op_tail_s": statistics.median(sorted(d)[max(0, min(rank, len(d) - 1))]
                                           for d in done),
        }

    setup_scaled = [x * k for x, k in zip(setup, speed_scale(setup_probes, REF_PROBE_WALL_S))]
    metrics = {"setup_s": statistics.median(setup_scaled),
               **summarize(speed_scale([w for w, _ in probes], REF_PROBE_WALL_S),
                           speed_scale([c for _, c in probes], REF_PROBE_CPU_S)),
               "peak_rss_mb": peak_kb / 1024.0}
    ones = [1.0] * len(samples)
    raw = {"setup_s": statistics.median(setup), **summarize(ones, ones)}
    n_done = sum(not s[3] for s in samples)
    info = {
        "rounds": rounds,
        "samples": {"setup_s": len(setup), "wall_s": rounds, "cpu_s": rounds,
                    "op_p50_s": n_done, "op_tail_s": rounds, "peak_rss_mb": len(samples)},
        "tail_percentile": round(100.0 * (len(cmds) - TAIL_BEYOND) / len(cmds), 1),
        "unscaled": raw,
        "probes_s": probes,
        "samples_s": [s[1:3] for s in samples],
        "round_digest": round_digest(records),
        "records": records,
        **tally(records, rounds),
    }
    return metrics, info


# -------------------------------------------------------- traced replay

def replay(cli, argv: list[str], workdir: str) -> tuple[float, tuple]:
    """Run one command in this process; returns (seconds, (rc, stdout, stderr,
    files)).  ``cli.main`` is looked up per call so that a traced run calls the
    installed wrapper."""
    real, paths = resolve(argv, workdir)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(real)
    elapsed = time.perf_counter() - t0
    return elapsed, (rc, out.getvalue(), err.getvalue(), read_outputs(paths))


def run_traced(cmds, seconds: float, workdir: str) -> tuple[dict, dict]:
    sys.path.insert(0, os.path.abspath(SRC))
    import kneading.cli as cli

    records = [Record(a) for a in cmds]
    plain, traced, layer_runs = [], [], []
    first = None                 # the first traced pass supplies counts and spans
    # an untimed first pass warms the heap and lazy imports, and is the one
    # the oracle checks
    for rec in records:
        rec.settle(*replay(cli, rec.argv, workdir)[1], False)
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 < seconds:
        tracer = tracing.Tracer()
        plain_s = traced_s = 0.0
        out_bytes = 0
        for i, rec in enumerate(records):
            # each command runs untraced and traced back to back, in alternating
            # order, so that the host's drift in speed cancels from the overhead
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                try:
                    elapsed, output = replay(cli, rec.argv, workdir)
                finally:
                    if with_trace:
                        tracer.uninstall()
                rec.settle(*output, False)
                if with_trace:
                    traced_s += elapsed
                    _, stdout, _, files = output
                    out_bytes += len(stdout.encode()) + sum(len(f.encode())
                                                            for f in files.values())
                else:
                    plain_s += elapsed
        plain.append(plain_s)
        traced.append(traced_s)
        tracer.counts["cli.out_bytes"] = out_bytes
        layer_runs.append(tracer.layer_metrics())
        first = first or tracer
    metrics = {}
    for key in layer_runs[0]:
        if key.endswith(".self_s"):
            metrics[key] = statistics.median(r[key] for r in layer_runs)
        else:
            metrics[key] = layer_runs[0][key]
    metrics.update(first.ratios())
    metrics["trace.overhead_frac"] = statistics.median(
        t / p for t, p in zip(traced, plain)) - 1.0
    info = {"rounds": len(traced), "round_digest": round_digest(records),
            "records": records, "spans": first.spans,
            **tally(records, 1 + 2 * len(traced))}
    return metrics, info


# ------------------------------------------------------------- reporting

def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_frac"):
        return "ratio"
    return "s" if suffix == "self_s" else "count"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    cmds = workloads.generate(workload, seed)
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    try:
        if traced:
            metrics, info = run_traced(cmds, seconds, workdir)
        else:
            metrics, info = run_e2e(cmds, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = info.pop("records")
    spans = info.pop("spans", None)
    stem = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{int(traced)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
              "environment": environment(), **info,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
              "commands": [r.as_json() for r in records]}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with gzip.open(stem + ".spans.jsonl.gz", "wt") as fh:
            for sp in spans:
                fh.write(json.dumps(sp) + "\n")
    for r in records:
        if r.outcome == "failed":
            print(f"FAILED {' '.join(r.argv)}: {r.detail}")
    print(f"# {workload} seed={seed} trace={int(traced)} rounds={info['rounds']} "
          f"commands/round={len(cmds)} attempted={info['attempted']} "
          f"known_failures={info['known_failures']} failed={info['failed']} "
          f"ops_failed_frac={info['ops_failed_frac']:.4f} "
          f"round_digest={info['round_digest'][:16]}")
    if not traced:
        print(f"# op_tail_s is p{info['tail_percentile']} of each round; times are "
              f"scaled to the reference speed, unscaled: "
              + " ".join(f"{k}={v:.6g}" for k, v in info["unscaled"].items()))
    samples = info.get("samples", {})
    for k, v in metrics.items():
        n = f" (n={samples[k]})" if k in samples else ""
        print(f"{workload}.{k} = {v:.6g} {unit_of(k)}{n}")
    return {"metrics": metrics, "attempted": info["attempted"], "failed": info["failed"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kneading", "cli.py")):
        print(f"error: run from the repository root; {SRC}/kneading/cli.py not found",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in zip(names, results) for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": unit_of(k.split(".", 1)[-1]
                                                                  if len(results) > 1 else k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
