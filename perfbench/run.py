#!/usr/bin/env python3
"""perfbench: the layered benchmark for germ.

Run one workload (each run is a fresh process, so field registry and
embedding caches start cold, as in every CLI invocation):

    python3 perfbench/run.py --workload nf-high-order --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics from a traced run.  ``--workload all`` runs
every workload, each in its own process.  ``--out FILE`` appends one JSON
record per run (metrics plus git SHA, Python version, nproc and a digest of
the generated inputs) for ``compare.py``.  ``--write-pool`` rebuilds
``pool.json``, the committed variant list and output digests
(``--workload all --write-pool`` for every workload).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
POOL_FILE = os.path.join(HERE, "pool.json")
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 21
CHILD_TIMEOUT = 170

# A fresh interpreter imports the CLI and builds the workload's base fields;
# the probe times that, not the interpreter's own start.
SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import germ.cli
from germ.fields import field_create
for p, k in json.loads(sys.argv[2]):
    field_create(p, k)
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="least length of the timed phase, which runs an "
                    "odd number of whole cycles")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append a JSON record of the run here")
    ap.add_argument("--spans", help="traced run: write every span as CSV")
    ap.add_argument("--write-pool", action="store_true",
                    help="search variants and rebuild pool.json")
    # internal: one pass of the traced run, in its own process
    ap.add_argument("--phase", choices=("plain", "traced"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--cycles", type=int, help=argparse.SUPPRESS)
    ap.add_argument("--first-cycle", type=int, default=0,
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def schedule(workload, seed):
    """(cycle, slot, variant) forever; the seed picks the variants."""
    rng = random.Random(f"{workload.name}:{seed}")
    cycle = 0
    while True:
        for s, slot in enumerate(workload.slots):
            v = 0 if slot.anchor else rng.randrange(workload.variants)
            yield cycle, s, v
        cycle += 1


def load_pool(workload, ctx):
    """{(slot, variant): (Case, expected digest)} from pool.json."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        entries = json.load(fh).get(workload.name)
    shape = [(slot.label, 1 if slot.anchor else workload.variants)
             for slot in workload.slots]
    if entries is None or \
            [(e["slot"], len(e["variants"])) for e in entries] != shape:
        raise SystemExit(f"error: pool.json does not match the slots of "
                         f"{workload.name}; rebuild it with --write-pool")
    cases = {}
    for s, (slot, entry) in enumerate(zip(workload.slots, entries)):
        for v, (cand, expected) in enumerate(entry["variants"]):
            rng = random.Random(f"{workload.name}/{s}/{cand}")
            cases[(s, v)] = (slot.make(rng, ctx), expected)
    return cases


def run_item(case, expected, digest):
    """(seconds in the library call, problems)."""
    t0 = time.perf_counter()
    try:
        result = case.call()
    except (Exception, SystemExit) as exc:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        problems, payload = case.gate(result)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return dt, [f"gate {type(exc).__name__}: {exc}"]
    if digest(payload) != expected:
        problems.append("output digest differs from pool.json")
    return dt, problems


def enough(cycles, elapsed, seconds):
    """Stop after an odd number of whole cycles once ``seconds`` have
    passed.  Cycles are built so that the median item is the middle sample
    of one slot; with an odd count, that sample is one measurement, not the
    mean of two, and a single slow item cannot move it."""
    return cycles % 2 == 1 and elapsed >= seconds


class Pass:
    """Items run in schedule order, with their times and failures."""

    def __init__(self):
        self.times = []
        self.slots = []
        self.failed = 0
        self.inputs = hashlib.sha256()

    def run(self, workload, cases, seed, digest, until=None, first_cycle=0,
            cycles=None, on_item=None):
        """Whole cycles from ``first_cycle``: ``cycles`` of them, or (with
        ``until``) an odd number lasting at least ``until`` seconds."""
        t_start = time.perf_counter()
        for cycle, s, v in schedule(workload, seed):
            if cycle < first_cycle:
                continue
            if s == 0 and cycle > first_cycle:
                if cycles is not None and cycle >= first_cycle + cycles:
                    break
                if until is not None and enough(
                        cycle - first_cycle, time.perf_counter() - t_start,
                        until):
                    break
            case, expected = cases[(s, v)]
            self.inputs.update(case.inputs.encode())
            if on_item is not None:
                on_item(len(self.times))
            dt, problems = run_item(case, expected, digest)
            self.times.append(dt)
            self.slots.append(s)
            if problems:
                self.failed += 1
                print(f"  FAIL {workload.slots[s].label} variant {v}: "
                      f"{'; '.join(problems)[:300]}", file=sys.stderr)
        return self

    def to_dict(self):
        return {"times": self.times, "slots": self.slots,
                "failed": self.failed,
                "inputs_sha256": self.inputs.hexdigest()}

    def merge(self, part):
        self.times += part["times"]
        self.slots += part["slots"]
        self.failed += part["failed"]
        self.inputs.update(part["inputs_sha256"].encode())


# ---------------------------------------------------------------------------
# metadata and metrics
# ---------------------------------------------------------------------------

def git_sha():
    """The checkout's commit, read from .git without running git; None when
    the tree is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def meta(inputs_sha):
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "inputs_sha256": inputs_sha}


def load_spec():
    with open(SPEC_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(workload):
    """Median over fresh interpreters of importing germ.cli and creating the
    workload's base fields."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, SRC,
             json.dumps(workload.base_fields)],
            capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def emit(args, workload_name, metrics, units, attempted, failed, info):
    """Print the metrics by name with units, append the record, and print
    the result line last."""
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {units[name]}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    if args.out:
        record = dict(result, workload=workload_name, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, **info)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True), flush=True)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def measure(args, workload, cases, digest):
    """--trace 0: set-up probes, then whole cycles for --seconds."""
    spec = load_spec()
    setup_s = setup_seconds(workload)
    if workload.fresh_cycles:
        run = Pass()
        t_start = time.perf_counter()
        cycle = 0
        while not enough(cycle, time.perf_counter() - t_start, args.seconds):
            run.merge(spawn(["--workload", workload.name, "--seed",
                             str(args.seed), "--phase", "plain", "--cycles",
                             "1", "--first-cycle", str(cycle)]))
            cycle += 1
    else:
        run = Pass().run(workload, cases, args.seed, digest,
                         until=args.seconds)
    times = run.times
    n = len(times)
    # the work runs here or, with fresh_cycles, in waited-for children; the
    # set-up probes are children too but far smaller
    peak_kb = max(resource.getrusage(who).ru_maxrss for who in
                  (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    metrics = {
        "items_per_s": n / sum(times),
        "item_p50_s": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    missing = set(units) ^ set(metrics)
    if missing:
        raise SystemExit(f"error: metrics and BENCHMARK.json differ: "
                         f"{sorted(missing)}")
    info = {"meta": meta(run.inputs.hexdigest()), "busy_s": sum(times)}
    print(f"perfbench {workload.name} seed={args.seed} trace=0: {n} items "
          f"in {sum(times):.3f} s busy, {run.failed} failed "
          f"(failed_frac {run.failed / n:.4f}); {info['meta']}")
    if n >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"  item_p90_s {p90:.6g} s (n={n}, not a gated metric)")
    print(f"  item_p50_s over n={n} items; setup_s is the median of "
          f"{SETUP_PROBES} fresh interpreters")
    for s, slot in enumerate(workload.slots):
        ts = [t for t, k in zip(times, run.slots) if k == s]
        print(f"  slot {s:>2} median {statistics.median(ts):9.4f} s "
              f"max {max(ts):9.4f} s n={len(ts):<4} {slot.label}")
    emit(args, workload.name, {k: metrics[k] for k in units}, units, n,
         run.failed, info)
    return 0


def child_pass(args, workload, cases, digest):
    """One pass of the traced run: --cycles whole cycles, traced or not."""
    tracer = None
    on_item = None
    if args.phase == "traced":
        import workloads
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(callers=[workloads])

        def on_item(i):
            tracer.item = i
    t0 = time.perf_counter()
    run = Pass().run(workload, cases, args.seed, digest,
                     first_cycle=args.first_cycle, cycles=args.cycles,
                     on_item=on_item)
    out = dict(run.to_dict(), busy_s=sum(run.times))
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = len(tracer.name)
        if args.spans:
            tracer.write_spans(args.spans, t0)
    print(json.dumps(out), flush=True)
    return 0


def spawn(argv):
    """Run this script in a fresh process; relay its human lines, return
    its last line parsed."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)] + argv,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: child {argv} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def traced(args, workload):
    """--trace 1: the same cycles untraced, then traced, each in a fresh
    process; per-layer metrics from the traced pass, overhead from both."""
    spec = load_spec()
    base = ["--workload", workload.name, "--seed", str(args.seed),
            "--cycles", str(workload.trace_cycles)]
    plain = spawn(base + ["--phase", "plain"])
    extra = ["--spans", args.spans] if args.spans else []
    traced_run = spawn(base + ["--phase", "traced"] + extra)
    layers = traced_run["layers"]
    layers["trace.untraced_s"] = plain["busy_s"]
    layers["trace.traced_s"] = traced_run["busy_s"]
    layers["trace.overhead_s"] = traced_run["busy_s"] - plain["busy_s"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {name: layers.get(name, 0) for name in units}
    # both passes run and gate the same items
    attempted = len(plain["times"]) + len(traced_run["times"])
    failed = plain["failed"] + traced_run["failed"]
    print(f"perfbench {workload.name} seed={args.seed} trace=1: "
          f"{workload.trace_cycles} cycle(s) of {len(traced_run['times'])} "
          f"items per pass, {traced_run['spans']} spans, {failed} failed")
    info = {"meta": meta(traced_run["inputs_sha256"]), "layers": layers}
    emit(args, workload.name, metrics, units, attempted, failed, info)
    return 0


def run_all(args, names):
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        res = spawn(argv)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, body in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = body
    print(json.dumps(combined, sort_keys=True), flush=True)
    return 0


def write_pool(workloads, ctx, digest):
    """Search candidates for every slot: keep those whose call succeeds,
    whose gate passes and that the slot's filter accepts."""
    pool = {}
    if os.path.exists(POOL_FILE):
        with open(POOL_FILE, encoding="utf-8") as fh:
            pool = json.load(fh)
    for workload in workloads:
        entries = []
        for s, slot in enumerate(workload.slots):
            need = 1 if slot.anchor else workload.variants
            variants, times, rejected = [], [], {}
            cand = 0
            while len(variants) < need:
                case = slot.make(random.Random(f"{workload.name}/{s}/{cand}"),
                                 ctx)
                t0 = time.perf_counter()
                try:
                    res = case.call()
                    why = None
                except Exception as exc:
                    why = type(exc).__name__
                dt = time.perf_counter() - t0
                if why is None:
                    problems, payload = case.gate(res)
                    if problems:
                        why = "gate: " + problems[0]
                    elif slot.accept is not None and not slot.accept(res):
                        why = "filtered"
                if why is None:
                    variants.append([cand, digest(payload)])
                    times.append(round(dt, 3))
                else:
                    rejected[why] = rejected.get(why, 0) + 1
                    if slot.anchor:
                        raise SystemExit(f"error: anchor {slot.label}: {why}")
                cand += 1
                if cand > 50 * need:
                    raise SystemExit(f"error: {slot.label}: too few variants")
            print(f"{workload.name} | {slot.label}: times {times} "
                  f"rejected {rejected}", flush=True)
            entries.append({"slot": slot.label, "variants": variants})
        pool[workload.name] = entries
    with open(POOL_FILE, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "germ", "__init__.py")):
        print(f"error: no germ sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, Context, digest

    if args.workload not in (*WORKLOADS, "all"):
        print(f"error: --workload must be one of {sorted(WORKLOADS)} or "
              f"'all'", file=sys.stderr)
        return 2
    if args.workload == "all" and not args.write_pool:
        return run_all(args, list(WORKLOADS))
    if args.trace == 1 and args.phase is None and not args.write_pool:
        return traced(args, WORKLOADS[args.workload])
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = Context(workdir)
        if args.write_pool:
            chosen = list(WORKLOADS.values()) if args.workload == "all" \
                else [WORKLOADS[args.workload]]
            return write_pool(chosen, ctx, digest)
        workload = WORKLOADS[args.workload]
        cases = load_pool(workload, ctx)
        if args.phase is not None:
            return child_pass(args, workload, cases, digest)
        return measure(args, workload, cases, digest)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
