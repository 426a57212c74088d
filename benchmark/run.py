"""The lidkit benchmark: run one workload and print every metric with its unit.

    python3 benchmark/run.py --workload table1_default --seed 1 --seconds 10 --trace 0

Run it from the repository root (it imports ``src/lidkit``).  Every sample is
a fresh child process (``child.py``).  With ``--trace 0`` it repeats the
workload's recipe while fewer than ``--seconds`` seconds have passed (at least
once), then times set-up in ``SETUP_SAMPLES`` more processes, and reports the
median of each end-to-end metric.  With ``--trace 1`` it runs the recipe once
untraced and once with every layer wrapped in spans, and reports the
per-layer metrics.

Each run is checked: ``report.validate()`` must pass, and every run of one
workload and seed must write a byte-identical ``report.json`` -- within this
invocation, against earlier invocations in this checkout (kept in
``.bench_out/digests.json``), and between the traced and untraced runs.  A
run that raises or fails a check counts as failed; ``error_ratio`` is
failed/attempted.  Human-readable lines, the environment included, go to
stdout first; the last line is the JSON result.  Each result is also appended
to ``.bench_out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

OUT = ".bench_out"
BUDGET_S = 170.0        # one invocation must end within 180 s
SETUP_SAMPLES = 5
ENV_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(Exception):
    pass


def _child(args, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("no time left in the run budget")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"),
                               *args], capture_output=True, text=True,
                              env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{args[0]} child timed out") from None
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or ["(no stderr)"]
        raise RunFailed(f"{args[0]} child exited {proc.returncode}: {lines[-1]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_manifest() -> None:
    """BENCHMARK.json must name exactly the workloads and metrics made here."""
    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    want = {
        "workloads": set(WORKLOADS),
        "end_to_end": {(n, u, b) for n, (u, b) in END_TO_END.items()},
        "per_layer": set(PER_LAYER.items()),
    }
    have = {
        "workloads": {w["name"] for w in manifest["workloads"]},
        "end_to_end": {(m["name"], m["unit"], m["better"])
                       for m in manifest["end_to_end"]},
        "per_layer": {(m["name"], m["unit"]) for m in manifest["per_layer"]},
    }
    for key in want:
        if want[key] != have[key]:
            raise SystemExit(f"BENCHMARK.json {key} do not match "
                             f"benchmark/workloads.py: "
                             f"{sorted(want[key] ^ have[key])[:5]}")


def _git_revision() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                          text=True, timeout=10)
    return proc.stdout.strip() or "unknown"


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in ENV_THREAD_VARS},
        "git": _git_revision(),
        "loadavg_before": os.getloadavg(),
    }


class Digests:
    """sha256 of report.json per workload/seed, kept across invocations."""

    def __init__(self, path: str):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                self.known = json.load(fh)
        except FileNotFoundError:
            self.known = {}

    def check(self, key: str, digest: str) -> None:
        expected = self.known.setdefault(key, digest)
        if digest != expected:
            raise RunFailed(f"report.json of {key} differs from an earlier run "
                            f"({digest[:12]} != {expected[:12]})")

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def _check_run(r: dict, digests: Digests, key: str) -> None:
    """Raise RunFailed unless a run child's outputs pass every check."""
    if "error" in r:
        raise RunFailed(f"recipe raised {r['error']}")
    if not 0.0 < r["auc_mean"] <= 1.0:
        raise RunFailed(f"auc_mean {r['auc_mean']} outside (0, 1]")
    if not 0.0 < r["adv_success_ratio"] <= 1.0:
        raise RunFailed(f"adv_success_ratio {r['adv_success_ratio']} "
                        f"outside (0, 1]")
    digests.check(key, r["report_sha256"])


def _run_child(workload: str, seed: int, deadline: float, *extra) -> dict:
    """Start a run or trace child on a fresh report directory.

    Every run uses one directory path, because the report records it in its
    config and runs of one seed must write identical bytes.
    """
    out_dir = os.path.join(OUT, workload, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(out_dir), exist_ok=True)
    mode = "trace" if extra else "run"
    return _child([mode, workload, str(seed), out_dir, *extra], deadline)


def measure(workload: str, seed: int, seconds: float, deadline: float,
            digests: Digests, log: dict) -> dict:
    """Untraced repeats plus set-up samples; medians of the end-to-end metrics.

    Repeats stop after ``seconds`` or at the first failed run.  A failed run
    still reports what it measured (auc_mean is 0: there is no report).
    """
    key = f"{workload}/seed{seed}"
    runs, errors = [], []
    attempted = 0
    t0 = time.monotonic()
    while True:
        started = time.monotonic()
        attempted += 1
        try:
            r = _run_child(workload, seed, deadline)
        except RunFailed as err:
            errors.append(str(err))
            break
        runs.append(r)
        try:
            _check_run(r, digests, key)
        except RunFailed as err:
            errors.append(str(err))
            break
        took = time.monotonic() - started
        if (time.monotonic() - t0 >= seconds
                or deadline - time.monotonic() < 2 * took + 10):
            break
    metrics, setups = {}, []
    if runs:
        good = [r for r in runs if "error" not in r] or runs
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "auc_mean",
                     "adv_success_ratio"):
            metrics[name] = statistics.median(r.get(name, 0.0) for r in good)
        config_file = os.path.join(OUT, workload, "config.json")
        with open(config_file, "w", encoding="utf-8") as fh:
            json.dump(runs[0]["config"], fh)
        for _ in range(SETUP_SAMPLES):
            attempted += 1
            try:
                setups.append(_child(["setup", config_file], deadline)["setup_s"])
            except RunFailed as err:
                errors.append(str(err))
                break
        if setups:
            metrics["setup_s"] = statistics.median(setups)
    log.update(errors=errors, runs=runs, setup_samples=setups)
    return {"attempted": attempted, "failed": len(errors), "metrics": metrics}


def measure_traced(workload: str, seed: int, deadline: float,
                   digests: Digests, log: dict) -> dict:
    """One untraced and one traced run; per-layer metrics from the spans."""
    key = f"{workload}/seed{seed}"
    errors, metrics = [], {}
    spans = os.path.join(OUT, workload, "spans.npz")
    attempted = 1
    try:
        plain = _run_child(workload, seed, deadline)
        log.update(untraced_wall_s=plain["wall_s"], config=plain["config"])
        _check_run(plain, digests, key)
        attempted += 1
        traced = _run_child(workload, seed, deadline, spans)
        metrics = traced["metrics"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - plain["wall_s"]
        log["spans"] = spans
        if traced["report_sha256"] != plain["report_sha256"]:
            raise RunFailed("traced report.json differs from the untraced one")
    except RunFailed as err:
        errors.append(str(err))
    log["errors"] = errors
    return {"attempted": attempted, "failed": len(errors), "metrics": metrics}


def _print_table(result: dict, units: dict) -> None:
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    print(f"  {'error_ratio':<44} "
          f"{result['failed'] / result['attempted']:>14.6g} 1 "
          f"({result['failed']} of {result['attempted']} runs failed)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "lidkit", "__init__.py")):
        print("run from the repository root: src/lidkit is missing",
              file=sys.stderr)
        return 2
    _check_manifest()
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT, exist_ok=True)
    env = _environment()
    digests = Digests(os.path.join(OUT, "digests.json"))
    log = {}
    if args.trace:
        result = measure_traced(args.workload, args.seed, deadline, digests, log)
        units = dict(PER_LAYER)
    else:
        result = measure(args.workload, args.seed, args.seconds, deadline,
                         digests, log)
        units = {n: u for n, (u, _) in END_TO_END.items()}
    digests.save()
    env["loadavg_after"] = os.getloadavg()

    for name in units:  # a failed run still reports every metric
        result["metrics"].setdefault(name, 0.0)
    result["correct"] = result["failed"] == 0
    print(f"lidkit benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} recipe={WORKLOADS[args.workload][0]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if "config" in log or log.get("runs"):
        config = log.get("config") or log["runs"][0]["config"]
        print("effective config: " + json.dumps(config, sort_keys=True))
    for err in log.get("errors", []):
        print(f"FAILED: {err}")
    _print_table(result, units)
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "environment": env,
                             "result": result, "log": log},
                            sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
