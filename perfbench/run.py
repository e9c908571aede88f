"""Benchmark of mhdlab: run one workload and print its metrics.

    python3 perfbench/run.py --workload {simulate,decay,verify} --seed N \
        --seconds S --trace {0,1}

Each pass of the workload runs in a fresh Python process (perfbench/
workload.py) against the sources under src/ of this checkout, with BLAS and
OpenMP pinned to THREADS threads.

With --trace 0 the command repeats passes while the next one is expected to
end within --seconds (at least one pass) and reports the median of each
end-to-end metric.  Set-up time is the median over SETUP_ONLY_RUNS extra
processes and every pass.  A speed probe interleaved with each pass (see
workload.SpeedProbe) measures how much slower than the reference the machine
ran; wall_ref_s and steps_per_ref_s are the measured wall_s and steps_per_s
rescaled by that factor, which removes most of the drift a shared machine
adds; the measured values are printed too.  setup_s is not rescaled: a probe
taken right after set-up did not track the speed of interpreter start and
imports, and made its spread larger.

With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass (with the probe's time taken out of
every span) plus the tracing overhead between the two, at the reference
speed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any correctness
check fails and 2 when the run could not be made at all.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("simulate", "decay", "verify")
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_ONLY_RUNS = 4
RUN_LIMIT_S = 170.0  # a whole run stays inside the 180 s allowed to it

END_TO_END_UNITS = {
    "wall_ref_s": "s",
    "steps_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {**LAYER_UNITS, "trace.overhead_s": "s", "trace.overhead_frac": "ratio"}


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts workload passes for one benchmark run and keeps its deadline."""

    def __init__(self, workload: str, size: str, seed: int, scratch: Path):
        self.workload, self.size, self.seed = workload, size, seed
        self.scratch = scratch
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = {**os.environ, **{v: str(THREADS) for v in THREAD_VARS}}
        self.count = 0

    def run_pass(self, *flags: str) -> dict:
        self.count += 1
        result = self.scratch / f"pass-{self.count}.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next pass")
        spawned = time.monotonic()
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--workload", self.workload, "--size", self.size, "--seed", str(self.seed),
               "--spawned", repr(spawned), "--result", str(result),
               "--scratch", str(self.scratch), *flags]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} pass did not finish in time") from None
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} pass exited with code {proc.returncode}")
        return json.loads(result.read_text())


def timed_run(runner: Runner, seconds: float) -> tuple[dict, dict, list, dict]:
    setups = [runner.run_pass("--setup-only")["setup_s"] for _ in range(SETUP_ONLY_RUNS)]
    passes = []
    window_end = time.monotonic() + seconds
    while True:
        started = time.monotonic()
        passes.append(runner.run_pass())
        now = time.monotonic()
        if now + (now - started) > window_end:
            break
    med = statistics.median
    metrics = {
        "wall_ref_s": med(p["wall_s"] / p["slowdown"] for p in passes),
        "steps_per_ref_s": med(p["steps_per_s"] * p["slowdown"] for p in passes),
        "setup_s": med(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    measured = {
        "wall_s": (med(p["wall_s"] for p in passes), "s"),
        "steps_per_s": (med(p["steps_per_s"] for p in passes), "1/s"),
        "slowdown": (med(p["slowdown"] for p in passes), "ratio"),
    }
    info = {"passes": len(passes), "setup_samples": len(setups) + len(passes),
            "probes": sum(p["probes"] for p in passes)}
    return metrics, measured, passes, info


def traced_run(runner: Runner, spans: Path) -> tuple[dict, dict, list, dict]:
    plain = runner.run_pass()
    traced = runner.run_pass("--spans", str(spans))
    plain_ref, traced_ref = (p["wall_s"] / p["slowdown"] for p in (plain, traced))
    metrics = {**traced["layers"], "trace.overhead_s": traced_ref - plain_ref,
               "trace.overhead_frac": (traced_ref - plain_ref) / plain_ref}
    measured = {"wall_s untraced": (plain["wall_s"], "s"),
                "wall_s traced": (traced["wall_s"], "s"),
                "slowdown untraced": (plain["slowdown"], "ratio"),
                "slowdown traced": (traced["slowdown"], "ratio")}
    return metrics, measured, [plain, traced], {"spans": str(spans.relative_to(ROOT))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one mhdlab benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny runs the same code at toy size (smoke test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mhdlab" / "__init__.py").is_file():
        print(f"perfbench: no mhdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = ROOT / ".perfbench"
    scratch = out / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.size, args.seed, scratch)
    try:
        if args.trace:
            spans = out / "traces" / f"{args.workload}-{args.size}-seed{args.seed}.json"
            spans.parent.mkdir(exist_ok=True)
            metrics, measured, passes, info = traced_run(runner, spans)
            units = PER_LAYER_UNITS
        else:
            metrics, measured, passes, info = timed_run(runner, args.seconds)
            units = END_TO_END_UNITS
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: check failed: {name} {detail}", file=sys.stderr)
    env = passes[-1]["env"]
    print(json.dumps({"workload": args.workload, "size": args.size, "seed": args.seed,
                      "trace": args.trace, **info, **env}))
    for name, (value, unit) in {**{n: (v, units[n]) for n, v in metrics.items()},
                                **measured}.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':34s} {len(failed) / len(checks):>16.6g} ratio"
          f" ({len(failed)} of {len(checks)} checks)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
