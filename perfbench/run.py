"""Benchmark entry point: one workload, end to end or traced.

    python3 perfbench/run.py --workload fig5_mixed --seed 1 --seconds 5 --trace 0

Makes sure the scalar reference for the seed exists, then runs the
workload in a fresh process with private trace-cache, result-cache and
results directories under ``perfbench/out/work/``.  After that process
exits it counts leftovers (``/dev/shm`` plane segments, live processes of
its session) as failures, appends a provenance record to
``perfbench/out/records.jsonl`` and prints a readable summary followed, as
the last line, by one JSON object: ``correct``, ``attempted`` and
``failed`` cells, and the metrics ``BENCHMARK.json`` lists for the mode
(end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("fig5_mixed", "fig9_ev8", "g1_sweep", "cached_replay")
TIME_LIMIT_S = 170


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # never let git find a repository above the checkout
    try:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def provenance() -> dict:
    """What was measured, on what: the code's commit, dirty flag and
    content digest, the CPU count and the Python and numpy versions."""
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    status = _git("status", "--porcelain", "--untracked-files=no", "--",
                  "src")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "code_digest": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _leftovers(pid: int) -> int:
    """Plane segments and processes the workload process left behind;
    removes them and returns how many kinds of leftovers there were."""
    leaks = 0
    prefix = f"repro-planes-{pid}-"
    try:
        stale = [name for name in os.listdir("/dev/shm")
                 if name.startswith(prefix)]
    except OSError:
        stale = []
    for name in stale:
        leaks += 1
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    def drained(seconds: float) -> bool:
        # multiprocessing's resource tracker exits on its own shortly
        # after its parent, so give the session a moment to empty.
        deadline = time.monotonic() + seconds
        while True:
            try:
                os.killpg(pid, 0)
            except (ProcessLookupError, PermissionError):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    if not drained(5):
        leaks += 1
        os.killpg(pid, signal.SIGKILL)
        drained(10)
    return leaks


def run_one(workload: str, seed: int, seconds: float, trace: int,
            spec: dict, started: float) -> dict:
    import cells
    import oracle
    from workload import WORKLOADS as CLASSES

    branches = CLASSES[workload].branches
    oracle.ensure(seed, branches, CLASSES[workload].groups)
    run_id = (f"{workload}-s{seed}-t{trace}-"
              f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    work = cells.OUT_DIR / "work" / run_id
    env = dict(os.environ)
    for name in ("REPRO_SIM_ENGINE", "REPRO_RESULT_CACHE",
                 "REPRO_TRACE_BRANCHES"):
        env.pop(name, None)
    for name, sub in (("REPRO_TRACE_CACHE", "trace_cache"),
                      ("REPRO_RESULT_CACHE_DIR", "result_cache"),
                      ("REPRO_RESULTS_DIR", "results")):
        (work / sub).mkdir(parents=True)
        env[name] = str(work / sub)
    command = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--reference", str(oracle.reference_path(seed, branches)),
               "--run-id", run_id]
    if trace:
        spans = cells.OUT_DIR / "spans" / f"{run_id}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(spans)]
    child = subprocess.Popen(command, env=env, cwd=str(ROOT),
                             stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise SystemExit(f"{workload}: workload process timed out")
    finally:
        leaks = _leftovers(child.pid)
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise SystemExit(f"{workload}: workload process failed "
                         f"(exit {child.returncode})")
    outcome = json.loads(lines[-1])
    names = spec["per_layer" if trace else "end_to_end"]
    metrics = {entry["name"]: {"value": outcome["metrics"][entry["name"]],
                               "unit": entry["unit"]}
               for entry in names}
    attempted = outcome["attempted"] + leaks
    failed = outcome["failed"] + leaks
    errors = outcome["errors"] + ([f"{leaks} leftover(s) after exit"]
                                  if leaks else [])
    record = {"time": datetime.datetime.now(datetime.timezone.utc)
              .isoformat(timespec="seconds"),
              "run": run_id, "workload": workload, "seed": seed,
              "trace": trace, "seconds": seconds,
              "trace_branches": branches,
              "passes": outcome["passes"], "pass_walls": outcome["walls"],
              "setup_walls": outcome["setup_walls"],
              "setup_machine_s": outcome["setup_machine"],
              "pass_machine_s": outcome["pass_machine"],
              "raw": outcome.get("raw"), "attempted": attempted,
              "failed": failed, "errors": errors,
              "metrics": metrics, **provenance()}
    with open(cells.OUT_DIR / "records.jsonl", "a") as ledger:
        ledger.write(json.dumps(record, sort_keys=True) + "\n")

    print(f"workload {workload}  seed {seed}  "
          f"{branches} branches/trace  "
          f"{outcome['passes']} passes  commit {record['commit']}")
    for name, metric in metrics.items():
        print(f"  {name:<32}{metric['value']:>16.6g} {metric['unit']}")
    if outcome.get("raw"):
        raw = outcome["raw"]
        print(f"  (as measured: wall {raw['wall_s']:.6g} s, set-up "
              f"{raw['setup_s']:.6g} s, host speed x{raw['host_speed']:.4g})")
    print(f"  {'error_rate':<32}{failed / max(attempted, 1):>16.6g} "
          f"fraction of cells ({failed}/{attempted})")
    for error in errors:
        print(f"  error: {error}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         spec, started)
        print(json.dumps(result))
        return 0
    results = {name: run_one(name, args.seed, args.seconds, args.trace,
                             spec, time.monotonic())
               for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, result in results.items()
                    for metric, value in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
