"""Set-up, run record and result output shared by the benchmark's
plain and traced runs."""

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
WORK = os.path.join(HERE, ".work")
RESULTS = os.path.join(HERE, "results")

#: Worker processes of every measured campaign (the machine has 2 cores).
JOBS = 2


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def setup(campaign, work, spans=None):
    """Lower the campaign, fill a fresh trace-artifact store with every
    recipe it uses, then start the executor as a campaign starts: load
    every recipe into this process and spawn the worker pool, which
    inherits them.  Trace-statistics cells (``scheme=None``) do that
    without simulating anything.

    Returns ``(executor, store, recipes)``.  ``spans`` times the store
    work as ``trace.build`` spans (traced run only).
    """
    from layers import Patches
    from repro.harness.executor import CellSpec, Executor
    from repro.harness.traceartifacts import TraceArtifactStore

    cells = campaign.lower()
    recipes = sorted({cell.workload for cell in cells}, key=TraceArtifactStore.key)
    store = TraceArtifactStore(work)
    executor = Executor(jobs=JOBS, trace_store=store, batch=campaign.batch)
    with Patches() as patches:
        if spans is not None:
            patches.set(
                TraceArtifactStore, "build", spans.wrap("trace.build", TraceArtifactStore.build)
            )
        for recipe in recipes:
            store.build(recipe)
        executor.run([CellSpec(workload=r, scheme=None, cores=r.threads) for r in recipes])
    return executor, store, recipes


def probe_setup(workload, seed):
    """Run one set-up in a fresh interpreter; returns its seconds."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# Run record
# ----------------------------------------------------------------------
def worker_peak_rss_mb():
    """Peak RSS of this process's live children (the pool workers)."""
    peak = 0.0
    for task in os.listdir(f"/proc/{os.getpid()}/task"):
        try:
            with open(f"/proc/{os.getpid()}/task/{task}/children") as handle:
                children = handle.read().split()
        except OSError:
            continue
        for pid in children:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]) / 1024)
            except OSError:
                continue
    return peak


def source_digest():
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit():
    """The checkout's git commit, or ``None`` outside a git work tree
    (the search never climbs above the working directory)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, env=env
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, campaign, load_before, extra):
    from repro.harness.bench import machine_fingerprint

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": campaign.index,
        "trace": args.trace,
        "jobs": JOBS,
        "machine": machine_fingerprint(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": list(os.getloadavg()),
        "commit": commit(),
        "source_sha256": source_digest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record.update(extra)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def emit(correct, attempted, failed, metrics, units, record):
    print("run record: " + json.dumps(record, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6g} {units[name]}")
    payload = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(payload))
    return 0 if correct else 1


