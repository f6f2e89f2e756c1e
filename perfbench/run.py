"""padspan benchmark: run one workload for a fixed time, or compare results.

    python3 perfbench/run.py --workload spanner-gnp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare base.jsonl new.jsonl

A run loads padspan from `src/` of the checkout it sits in, builds the
workload's inputs from --seed, then runs trials back to back (a closed
loop, one process, BLAS/OpenMP threads pinned to 1) until --seconds have
passed. Every trial's guarantees are checked; a broken guarantee, an
exception or a trial over TRIAL_BUDGET_S counts as a failure and the run
goes on. The last line of stdout is one JSON object: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
With --trace 1 the first trials are run again, untraced and traced in
turn: the untraced outputs must match, and the pairs give the tracing
overhead. Each run also appends a full record (per-trial times,
host calibration, versions) to --out, which --compare reads.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)  # before anything imports numpy

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_OUT = os.path.join(HERE, "results", "runs.jsonl")

#: A trial taking longer than this is stopped and counted as a timeout; a
#: set-up probe taking longer ends the run.
TRIAL_BUDGET_S = 30.0
#: Set-up is measured this many times, each in a fresh process: half before
#: the timed loop and half after it, so that the samples see the host at
#: different moments.
SETUP_REPEATS = 4
#: Trials a traced run repeats untraced for the output-identity check.
IDENTITY_TRIALS = 8
#: A tail percentile needs at least this many trials beyond it.
TAIL_BEYOND = 10


class TrialTimeout(Exception):
    pass


@contextlib.contextmanager
def trial_budget(seconds: float):
    def fire(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def calibrate() -> float:
    """Median time of a fixed pure-Python loop, a reading of host speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least TAIL_BEYOND trials above it
    (nearest rank); p50 when there are too few trials for any.
    Returns (percentile, value, trials beyond it)."""
    xs = sorted(times)
    n = len(xs)
    for q in range(99, 49, -1):
        idx = math.ceil(q * n / 100) - 1
        if n - 1 - idx >= TAIL_BEYOND:
            return q, xs[idx], n - 1 - idx
    return 50, statistics.median(xs), n // 2


def host_info() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "padspan")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
    }


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports padspan and builds the
    workload's inputs: what a user waits for before the first trial."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd)
    try:
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        with trial_budget(TRIAL_BUDGET_S):
            code = proc.wait()
    except TrialTimeout:
        proc.kill()
        proc.wait()
        raise
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"set-up probe exited with code {code}")
    return elapsed


def run_trials(workload, state, seconds: float, tracer=None):
    """Closed loop until `seconds` pass; the last trial may overrun."""
    from spans import layer_totals, merge_totals

    times, outcomes, kinds = [], [], Counter()
    totals: dict[str, float] = {}
    sample: list = []
    failed = 0
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        outcome = None
        try:
            with trial_budget(TRIAL_BUDGET_S):
                if tracer is None:
                    outcome = workload.trial(state, i)
                else:
                    with tracer.span("harness.trial"):
                        outcome = workload.trial(state, i)
            broken = outcome.failures
        except TrialTimeout:
            broken = ["timeout"]
        except Exception:
            traceback.print_exc(file=sys.stderr)
            broken = ["exception"]
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
        if broken:
            failed += 1
            kinds.update(broken)
        if tracer is not None:
            spans = tracer.take()
            merge_totals(totals, layer_totals(spans))
            if i == 0:
                sample = spans
        i += 1
        if time.perf_counter() - start >= seconds:
            break
    return {
        "times": times, "outcomes": outcomes, "kinds": kinds,
        "failed": failed, "wall": time.perf_counter() - start,
        "totals": totals, "sample": sample,
    }


def end_to_end(loop: dict, setup_probes: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and what the record adds about the tail."""
    times = loop["times"]
    done = [o for o in loop["outcomes"] if o is not None]
    attempted = len(times)
    passed = attempted - loop["failed"]
    q, value, beyond = tail(times)
    return {
        "trial_s_p50": statistics.median(times),
        "trial_s_tail": value,
        "trials_per_s": passed / loop["wall"],
        "setup_s": statistics.median(setup_probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds_mean": statistics.fmean(o.rounds for o in done) if done else 0.0,
        "messages_mean": (statistics.fmean(o.messages for o in done)
                          if done else 0.0),
        "pass_rate": passed / attempted,
    }, {"tail_percentile": q, "tail_beyond": beyond, "trials": attempted}


def per_layer(loop: dict, setup_totals: dict, identity: dict) -> dict[str, float]:
    from spans import MAXIMA
    from workloads import GUARANTEES

    n = len(loop["times"])
    totals = dict(loop["totals"])
    base = totals.pop("lp.cluster_base", 0.0)
    padded = totals.pop("decomposition.padded", 0.0)
    slots = totals.pop("decomposition.padded_slots", 0.0)
    out = {k: (v if k in MAXIMA else v / n) for k, v in totals.items()}
    hits = base - totals.get("lp.cluster_solves", 0.0)
    out["lp.cluster_hits"] = hits / n
    out["lp.cluster_hit_ratio"] = hits / base if base else 0.0
    quality = [o.quality for o in loop["outcomes"] if o is not None]
    ratios = [q["approx_ratio"] for q in quality if "approx_ratio" in q]
    out["distributed.approx_ratio_mean"] = statistics.fmean(ratios) if ratios else 0.0
    carved = [q["padded_fraction"] for q in quality if "padded_fraction" in q]
    if slots:
        out["decomposition.padded_fraction"] = padded / slots
    else:
        out["decomposition.padded_fraction"] = (
            statistics.fmean(carved) if carved else 0.0)
    out["graphs.distance_matrix_setup_s"] = setup_totals.get(
        "graphs.distance_matrix_s", 0.0)
    out["graphs.distance_matrix_bytes"] = max(
        out.get("graphs.distance_matrix_bytes", 0.0),
        setup_totals.get("graphs.distance_matrix_bytes", 0.0))
    for kind in ("exception", "timeout", *GUARANTEES):
        out[f"harness.fail.{kind}"] = loop["kinds"].get(kind, 0)
    out["bench.trace_overhead_s"] = identity["overhead_s"]
    out["bench.identity_trials"] = identity["trials"]
    return out


def check_identity(workload, state, loop: dict, tracer) -> dict:
    """Run the first traced trials again, untraced and traced in turn.

    Each untraced output must equal the one the timed traced loop produced.
    The pairs, alternating which side runs first, give the tracing
    overhead: median traced minus median untraced trial time.
    """
    from spans import installed

    traced = [(i, o) for i, o in enumerate(loop["outcomes"][:IDENTITY_TRIALS])
              if o is not None]
    mismatched = []
    times: dict[str, list[float]] = {"traced": [], "untraced": []}
    for j, (i, outcome) in enumerate(traced):
        for mode in ("untraced", "traced")[:: 1 if j % 2 == 0 else -1]:
            hook = installed(tracer) if mode == "traced" else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with trial_budget(TRIAL_BUDGET_S), hook:
                    again = workload.trial(state, i)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                again = None
            times[mode].append(time.perf_counter() - t0)
            tracer.take()
            if mode == "untraced" and (again is None
                                       or again.digest != outcome.digest):
                mismatched.append(i)
    overhead = (statistics.median(times["traced"])
                - statistics.median(times["untraced"]) if traced else 0.0)
    return {"trials": len(traced), "mismatched": mismatched,
            "traced_s": times["traced"], "untraced_s": times["untraced"],
            "overhead_s": overhead}


def run(args, spec: dict) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    calib_before = calibrate()
    record: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "seconds": args.seconds}
    if args.trace:
        from spans import Tracer, installed, layer_totals, span_records

        tracer = Tracer()
        with installed(tracer):
            state = workload.setup(args.seed)
            setup_totals = layer_totals(tracer.take())
            loop = run_trials(workload, state, args.seconds, tracer)
        identity = check_identity(workload, state, loop, tracer)
        values = per_layer(loop, setup_totals, identity)
        record["identity"] = identity
        record["trace_sample"] = span_records(loop["sample"])
        correct = loop["failed"] == 0 and not identity["mismatched"]
        declared = spec["per_layer"]
    else:
        probes = [measure_setup(args.workload, args.seed)
                  for _ in range(SETUP_REPEATS // 2)]
        state = workload.setup(args.seed)
        record["setup_inproc_s"] = time.perf_counter() - T_START
        loop = run_trials(workload, state, args.seconds)
        probes += [measure_setup(args.workload, args.seed)
                   for _ in range(SETUP_REPEATS - len(probes))]
        values, extra = end_to_end(loop, probes)
        record.update(extra, setup_probes_s=probes)
        correct = loop["failed"] == 0
        declared = spec["end_to_end"]
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    quality = [o.quality for o in loop["outcomes"] if o is not None]
    record.update(
        correct=correct, attempted=len(loop["times"]), failed=loop["failed"],
        fail_kinds=dict(loop["kinds"]), metrics=metrics,
        trial_s=loop["times"],
        quality={k: statistics.fmean(q[k] for q in quality)
                 for k in (quality[0] if quality else {})},
        host={**host_info(), "calib_s": [calib_before, calibrate()]},
    )
    result = {"correct": correct, "attempted": len(loop["times"]),
              "failed": loop["failed"], "metrics": metrics}
    return result, record


def summarize(record: dict) -> None:
    """Human-readable lines ahead of the JSON result."""
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']}: "
          f"{record['attempted']} trials, {record['failed']} failed "
          f"{record['fail_kinds'] or ''}, quality {record['quality']}")
    if "tail_percentile" in record:
        print(f"  tail is p{record['tail_percentile']} with "
              f"{record['tail_beyond']} trials beyond it")
    if "identity" in record:
        ident = record["identity"]
        print(f"  output identity over {ident['trials']} untraced reruns: "
              f"{'ok' if not ident['mismatched'] else ident['mismatched']}")
    metrics = record["metrics"]
    trial = metrics.get("harness.trial_s", {}).get("value")
    for name, m in metrics.items():
        share = ""
        if trial and name.endswith("_s") and name != "harness.trial_s":
            share = f"  {m['value'] / trial:6.1%} of trial"
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}{share}")
    host = record["host"]
    print(f"  host calib_s before/after {host['calib_s'][0]:.4f}/"
          f"{host['calib_s'][1]:.4f}, nproc {host['nproc']}, python "
          f"{host['python']}, numpy {host['numpy']}, scipy {host['scipy']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="JSON-lines file each run appends its record to")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two --out files and exit")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        from compare import compare
        return compare(*args.compare, SPEC_PATH)
    if not os.path.isfile(os.path.join(SRC, "padspan", "__init__.py")):
        print(f"padspan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        WORKLOADS[args.workload].setup(args.seed)
        return 0
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    result, record = run(args, spec)
    summarize(record)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
