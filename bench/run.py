#!/usr/bin/env python3
"""End-to-end benchmark of the matpencil command line.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 34 --trace 0

The script makes the workload's inputs from the seed (see workloads.py),
drives `matpencil.cli.main` in this one warmed process (closed loop, one
client, one case at a time) for about `--seconds` seconds, checks every
output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
case_s_p50, big_case_s, peak_rss_mb).  With `--trace 1` every case runs
twice, untraced and then under the timing shims of tracing.py, and the
metrics are per-layer self times and counts per round.  A per-case
report goes to stderr.

A case fails on a wrong exit code, an output that fails its semantic
check, exact output whose sha256 differs from the one recorded in
golden.json for that seed and round, or a hit time limit.  `--record`
writes this run's digests into golden.json.  NOTES.md describes the
workloads, the metrics and the layer each metric belongs to.
"""

import os

# One process and no worker threads: BLAS and OpenMP pools are pinned to
# one thread before numpy is first imported, here and in the fresh
# interpreters started for setup_s.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"

CASE_LIMIT_S = 60.0
# setup_s samples: two before the measured rounds, one every
# SETUP_EVERY_S seconds between their cases, and two after.  Slow host
# periods last up to tens of seconds; samples spread over the run keep
# the estimate out of any single one.  The samples between cases count
# against --seconds, so that a run's length stays close to it.
SETUP_EDGE_REPEATS = 2
SETUP_EVERY_S = 6.0
IMPORTTIME_REPEATS = 3
SETUP_LIMIT_S = 60.0
DIGEST_HEX = 16
IMPORT_PACKAGES = ("numpy", "scipy", "sympy")


class CaseTimeout(BaseException):
    """Raised by SIGALRM inside a case.  A BaseException, so that no
    `except Exception` in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ---------------------------------------------------------------------------
# set-up cost in fresh interpreters


def setup_seconds(repeats):
    """Times from starting a fresh interpreter until matpencil.cli is
    imported.  The child prints the monotonic clock, which it shares with
    this process, right after the import."""
    code = "import matpencil.cli, time; print(time.monotonic())"
    times = []
    for _ in range(repeats):
        t0 = time.monotonic()
        out = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=SETUP_LIMIT_S).stdout
        times.append(float(out) - t0)
    return times


def _import_tree(stderr):
    """Parse `-X importtime` lines into (name, cumulative s, children)
    roots.  Children are printed before their parent, one indent deeper."""
    pending = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if not cum.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        kids = []
        while pending and pending[-1][0] > depth:
            kids.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cum) * 1e-6, kids))
    return pending


def _package_seconds(nodes, package):
    total = 0.0
    for _, name, cum, kids in nodes:
        if name == package or name.startswith(package + "."):
            total += cum
        else:
            total += _package_seconds(kids, package)
    return total


def import_split():
    """Median import time of each dependency, from `python -X importtime`,
    counting what each package imports in turn."""
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_REPEATS):
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import matpencil.cli"],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            check=True, timeout=SETUP_LIMIT_S).stderr
        tree = _import_tree(err)
        for pkg in IMPORT_PACKAGES:
            samples[pkg].append(_package_seconds(tree, pkg))
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def probe_seconds():
    """A fixed pure-Python Fraction loop.  It does the same work on every
    run, so its time shows how fast the host ran during the run."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 30001):
        x = Fraction(i, 7) * Fraction(5, i % 11 + 1) + Fraction(1, 3)
        acc += x.numerator % 7
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# cases


def write_inputs(case, casedir):
    casedir.mkdir(parents=True)
    for name, payload in case.files.items():
        (casedir / name).write_text(json.dumps(payload))


def run_case(cli, case, casedir, limit):
    """Run the case's ops in order under a time limit.  Returns (seconds,
    stdout per op label, error or None)."""
    def arg(a):
        return str(casedir / a) if a.endswith(".json") else a

    outs = {}
    error = None
    old = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        for op in case.ops:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([arg(a) for a in op.argv])
            outs[op.label] = buf.getvalue()
            if op.out:
                (casedir / op.out).write_text(outs[op.label])
            if code != 0:
                error = f"{op.label}: exit {code}"
                break
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    except CaseTimeout:
        seconds = time.perf_counter() - t0
        error = f"timeout: over the {limit:.0f} s case limit"
    except Exception as e:  # a traceback fails the case, not the run
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        error = f"{op.label}: {type(e).__name__}: {e}"
    finally:
        signal.signal(signal.SIGALRM, old)
    return seconds, outs, error


def digest(case, outs):
    h = hashlib.sha256()
    for op in case.ops:
        if op.exact:
            h.update(f"{op.label}\0{outs[op.label]}\0".encode())
    return h.hexdigest()[:DIGEST_HEX]


def judge(case, outs, error, want_digest):
    """Error string for a finished case, or None when it passed."""
    if error:
        return error
    if case.check:
        try:
            error = case.check(outs)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            error = f"unreadable output: {type(e).__name__}: {e}"
        if error:
            return error
    if want_digest and digest(case, outs) != want_digest:
        return "exact output differs from the recorded digest"
    return None


# ---------------------------------------------------------------------------
# the measured loop


class Run:
    """The measured rounds of one run, with their latencies, failures,
    output digests and, when traced, per-layer totals."""

    def __init__(self, args, cli, golden):
        self.args = args
        self.cli = cli
        self.golden = golden.get(args.workload, {}).get(str(args.seed), [])
        self.tracer = tracing.Tracer() if args.trace else None
        self.setup = None if args.trace else []  # setup_s samples
        self.latency = defaultdict(list)   # case name -> untraced seconds
        self.big = set()
        self.attempted = 0
        self.failures = []
        self.digests = []                  # per round, per case
        self.rounds = []                   # per complete traced round
        self.overhead = []

    def _want(self, r, i):
        if r < len(self.golden) and i < len(self.golden[r]):
            return self.golden[r][i]
        return None

    def _one(self, case, casedir, limit, want, label):
        seconds, outs, error = run_case(self.cli, case, casedir, limit)
        self.attempted += 1
        error = judge(case, outs, error, want)
        if error:
            self.failures.append(f"{label} {case.name}: {error}")
        return seconds, outs, error

    def loop(self, workdir, deadline, hard_deadline):
        r = 0
        next_setup = time.perf_counter() + SETUP_EVERY_S
        while True:
            cases = workloads.make_round(self.args.workload, self.args.seed, r)
            layer_totals = defaultdict(float)
            overhead = 0.0
            round_digests = []
            for i, case in enumerate(cases):
                now = time.perf_counter()
                if self.setup is not None and now >= next_setup:
                    self.setup += setup_seconds(1)
                    now = time.perf_counter()
                    next_setup = now + SETUP_EVERY_S
                # stop before a case that would end past the deadline
                expected = statistics.median(self.latency.get(case.name)
                                             or [0])
                if r and now + expected * (1 + self.args.trace) > deadline:
                    return
                limit = min(CASE_LIMIT_S, hard_deadline - now)
                if limit <= 0:
                    return
                casedir = workdir / f"r{r}" / f"{i}-{case.name}"
                write_inputs(case, casedir)
                want = self._want(r, i)
                label = f"round {r}"
                seconds, outs, error = self._one(case, casedir, limit, want,
                                                 label)
                self.latency[case.name].append(seconds)
                if case.big:
                    self.big.add(case.name)
                exact = any(op.exact for op in case.ops)
                round_digests.append(
                    digest(case, outs) if exact and not error else None)
                if self.tracer and not error:
                    t_seconds = self._traced(case, casedir, limit, outs,
                                             label, layer_totals)
                    overhead += t_seconds - seconds
            self.digests.append(round_digests)
            if self.tracer:
                self.rounds.append(layer_totals)
                self.overhead.append(overhead)
            r += 1

    def _traced(self, case, casedir, limit, untraced_outs, label, totals):
        """Run the case again under the shims; its outputs must match the
        untraced run's byte for byte."""
        self.tracer.install()
        try:
            seconds, outs, error = self._one(case, casedir, limit, None,
                                             label + " traced")
        finally:
            self.tracer.uninstall()
        if not error and outs != untraced_outs:
            self.failures.append(f"{label} traced {case.name}: output "
                                 "differs from the untraced run")
        for name, value in self.tracer.take().items():
            totals[name] += value
        return seconds


def fastest_quarter_mean(samples):
    """Mean of the fastest quarter of the samples (at least one).  The
    host has slow bursts of 1.5-1.8x, from a fraction of a second to tens
    of seconds; in a slow stretch most samples are slow, but the fastest
    ones still fall in the fast moments between bursts.  Input difficulty
    also gives latencies a slow tail; the fast side is tight."""
    fast = sorted(samples)[:math.ceil(len(samples) / 4)]
    return statistics.fmean(fast)


def end_to_end(run):
    """Each case of the round list is timed on several draws and stands
    for one latency.  Pooling the samples of different cases instead
    would put a median in the gap between two cases' latencies."""
    per_case = {name: fastest_quarter_mean(v)
                for name, v in run.latency.items()}
    big = [per_case[name] for name in run.big]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (fastest_quarter_mean(run.setup), "s"),
        "wall_s": (sum(per_case.values()), "s"),
        "case_s_p50": (statistics.median(per_case.values()), "s"),
        "big_case_s": (statistics.fmean(big), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run, imports, probes):
    n = max(len(run.rounds), 1)
    out = {name: (sum(t[name] for t in run.rounds) / n, unit)
           for name, unit in tracing.METRICS}
    for pkg in IMPORT_PACKAGES:
        out[f"setup.{pkg}_import_s"] = (imports[pkg], "s")
    out["trace.overhead_s"] = (sum(run.overhead) / n, "s")
    out["host.probe_s"] = (statistics.median(probes), "s")
    return out


def report(run, probes, metrics):
    err = sys.stderr
    versions = " ".join(f"{name} {sys.modules[name].__version__}"
                        for name in ("numpy", "scipy", "sympy"))
    print(f"python {sys.version.split()[0]} {versions} nproc "
          f"{os.cpu_count()}", file=err)
    print(f"workload {run.args.workload} seed {run.args.seed}: "
          f"{len(run.digests)} complete rounds, {run.attempted} case runs, "
          f"{len(run.failures)} failed", file=err)
    print("probe_s " + " ".join(f"{p:.4f}" for p in probes), file=err)
    if run.setup:
        print("setup_s " + " ".join(f"{p:.4f}" for p in run.setup), file=err)
    for name, v in run.latency.items():
        print(f"  {name:<20} n={len(v):<3} latency "
              f"{fastest_quarter_mean(v):.4f} s  all "
              + " ".join(f"{x:.4f}" for x in v), file=err)
    for f in run.failures:
        print("FAILED " + f, file=err)
    if run.tracer:
        self_s = {k + "_s": metrics[k + "_s"][0] for k in tracing.LAYERS}
        traced = sum(self_s.values()) or 1.0
        print("self time per round, share of the traced cli.main time:",
              file=err)
        for k, v in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {k:<30} {v:10.4f} s  {100 * v / traced:5.1f}%",
                  file=err)


def record(run):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.setdefault(run.args.workload, {})[str(run.args.seed)] = run.digests
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's output digests in golden.json")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (SRC / "matpencil" / "cli.py").is_file():
        print(f"error: no matpencil sources under {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    setup_seconds(1)  # the first start compiles the package's bytecode
    imports = import_split() if args.trace else None
    sys.path.insert(0, str(SRC))
    from matpencil import cli
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    run = Run(args, cli, golden)
    if run.setup is not None:
        run.setup += setup_seconds(SETUP_EDGE_REPEATS)

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        warm = workloads.make_round(args.workload, args.seed, 0)[0]
        write_inputs(warm, workdir / "warm")
        run_case(cli, warm, workdir / "warm", CASE_LIMIT_S)
        probes = [probe_seconds()]
        t0 = time.perf_counter()
        # the run must end within 180 s of its start, whatever the cases do
        run.loop(workdir, t0 + args.seconds, started + 150.0)
        probes.append(probe_seconds())
        if run.setup is not None:
            run.setup += setup_seconds(SETUP_EDGE_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.trace:
        metrics = per_layer(run, imports, probes)
    else:
        metrics = end_to_end(run)
    report(run, probes, metrics)
    if args.record:
        if run.failures:
            print("not recording digests of a run with failures",
                  file=sys.stderr)
        elif any(d for rd in run.digests for d in rd):
            record(run)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
