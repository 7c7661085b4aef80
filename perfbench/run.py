"""centralq benchmark: one workload (or all of them) for a fixed number of seconds.

    python3 perfbench/run.py --workload heavy_rows --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 1

Run from the root of a checkout.  Every iteration runs in a fresh
interpreter (worker.py) with the BLAS thread pools pinned to one thread;
iterations repeat until --seconds have passed.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json (medians over the
iterations); with --trace 1 it runs one untraced iteration for the
parallel efficiency, then traced ones at jobs=1, and reports the
per-layer metrics.  Set-up time is sampled on every worker start plus a
few set-up-only starts.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  Everything the run
writes (spans, a results file, the sweep's throwaway cache) stays under
perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
WORKER = HERE / "worker.py"
WORKLOADS = ("heavy_rows", "table_sweep", "aut_classes")

# set-up-only worker starts before each iteration and after the last
SETUP_PROBES = 4
SETTLE_S = 1.0
# the whole run ends well inside three minutes, even when iterations slow down
RUN_DEADLINE_S = 165.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    env.pop("CENTRALQ_CACHE_DIR", None)
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start worker.py, return (seconds until READY, its JSON result or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        start_new_session=True,  # one process group: the worker and its pool
    )
    out = b""
    ready_at = None
    try:
        fd = proc.stdout.fileno()
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError(f"worker {' '.join(args)} ran past the run deadline")
            readable, _, _ = select.select([fd], [], [], left)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if ready_at is None and b"READY\n" in out + chunk:
                ready_at = time.perf_counter()
            if not chunk:
                break
            out += chunk
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} did not exit") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready_at is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines[-1] != "READY" else None
    return ready_at - t0, result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    setups = []

    def probe_setup():
        # spread over the run, so a short burst of load skews only some
        # samples; the pause lets the exit of the previous worker settle
        time.sleep(SETTLE_S)
        setups.extend(run_worker(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES))

    def iteration(traced: bool) -> dict:
        args = ["--workload", name, "--seed", str(seed)]
        if traced:
            WORK.mkdir(exist_ok=True)
            args += ["--trace", str(WORK / f"spans-{name}-seed{seed}.jsonl")]
        t0 = time.perf_counter()
        setup_s, res = run_worker(args, deadline)
        setups.append(setup_s)
        res["iteration_s"] = time.perf_counter() - t0
        print(
            f"# {name} seed={seed} traced={int(traced)} jobs={res['jobs']} "
            f"wall={res['wall_s']:.3f}s cpu={res['cpu_s']:.3f}s rss={res['peak_rss_mb']:.1f}MB "
            f"cells={res['cells_checked']} refused={res['cells_refused']} "
            f"failed={res['cells_failed']}",
            flush=True,
        )
        for problem in res["problems"]:
            print(f"#   {problem}", flush=True)
        return res

    plain, traced = [], []
    measured = traced if trace else plain
    if trace:
        probe_setup()
        plain.append(iteration(False))
    while True:
        probe_setup()
        measured.append(iteration(trace))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + measured[-1]["iteration_s"] > RUN_DEADLINE_S - 15:
            break
    probe_setup()

    runs = plain + traced
    checked = sum(r["cells_checked"] for r in runs)
    attempted = checked + sum(r["cells_refused"] for r in runs)
    failed = sum(r["cells_failed"] for r in runs)
    fail_ratio = failed / checked if checked else 1.0

    def med(key):
        return statistics.median(r[key] for r in plain)

    if trace:
        metrics = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        p = plain[0]
        metrics["engine.parallel_efficiency"] = p["cpu_s"] / (p["jobs"] * p["wall_s"])
    else:
        metrics = {
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "setup_s": statistics.median(setups),
            "cells_checked": med("cells_checked"),
            "cell_pass_ratio": 1.0 - fail_ratio,
        }
    env = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "iterations": len(runs),
        "setup_samples": len(setups),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": runs[0]["numpy"],
        "centralq": runs[0]["centralq"],
    }
    WORK.mkdir(exist_ok=True)
    record = {"env": env, "metrics": metrics, "iterations": runs, "setup_samples_s": setups}
    (WORK / f"results-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1)
    )
    print("# env " + json.dumps(env), flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "cell_fail_ratio": fail_ratio,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    units = _units()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for name, res in results.items():
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} cell_fail_ratio={res['cell_fail_ratio']}")
        for key, value in res["metrics"].items():
            print(f"   {key:34s} {value:>18.10g} {units[key]}")

    def line(res):
        return {
            "correct": res["correct"],
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
        }

    if args.workload == "all":
        print(json.dumps({name: line(res) for name, res in results.items()}))
    else:
        print(json.dumps(line(results[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
