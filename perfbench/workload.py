"""One benchmark pass in a fresh process: set up, call mhdlab, gate outputs.

perfbench/run.py starts this script once per pass and reads the JSON file it
writes.  ``--spawned`` is the parent's ``time.monotonic()`` just before the
process was started, so ``setup_s`` covers interpreter start, ``import
mhdlab`` and input generation up to the first API call.  With
``--setup-only`` the pass stops there.
"""

import argparse
import json
import math
import os
import platform
import resource
import signal
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload inputs.  "full" is what the benchmark measures; "tiny" is the same
# code path at toy size, used only by the smoke test.
SIMULATE = {
    "full": {"T": 5.0, "cadence": 0.25},  # default 256^2 run, 100 steps
    "tiny": {"nx": 32, "ny": 32, "Lx": 8 * math.pi, "Ly": 8 * math.pi,
             "T": 0.5, "cadence": 0.25},
}
DECAY = {
    "full": (("kn1L", "k1L"), 12),
    "tiny": (("kn1L",), 3),
}
DECAY_WINDOW = (316.0, 1.0e4)  # acceptance criterion 6
VERIFY_TINY_CLAIMS = ("elem1", "quad:est_At")
# Claims left out of the verify workload.  projector_dt returns FAIL for about
# 7 % of seeds (5, 16, 29, 47, 50, 74, 85 and 118 of 0-119): its fitted
# constant stays under the cap, but the x2 refine-stability test in
# verify._finish trips between 40 and 80 random samples.  That is a defect of
# the checker; put the claim back here once it is fixed.
VERIFY_EXCLUDED_CLAIMS = ("projector_dt",)

# Correctness gates.
MASS_DRIFT_MAX = 1e-10          # criterion 8c
DECAY_SLOPE_TOL, DECAY_R2_MIN = 0.05, 0.98  # criterion 6
# Values computed pointwise (trajectory columns, kernel-scan constants) must
# match the recorded ones to this share of their column's largest magnitude.
POINTWISE_RTOL = 1e-6
# Values computed by quadrature may move within the 1 % agreement at which
# linear._refined accepts a value; fitted slopes by the same absolute amount.
QUADRATURE_RTOL = 1e-2
ACCEPTED_VERDICTS = ("PASS", "INFO")

REFERENCE = HERE / "reference.json"

# Speed probe.  A fixed reference computation runs every PROBE_INTERVAL_S
# inside every pass; PROBE_REF_S is its mean duration on the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 2.0e-3


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


class SpeedProbe:
    """Times a fixed computation at regular intervals during a pass.

    On a shared machine the speed of one core drifts by up to a third over
    tens of seconds, and a second core drifts independently, so the probe
    runs on the same core as the workload, interleaved with it through
    SIGALRM.  The time it takes is excluded from the pass; its mean duration
    gives the factor by which the machine ran slower than the reference.
    """

    def __init__(self):
        import numpy as np

        self._fft_in = np.random.default_rng(0).random((64, 64)) + 0j
        self._ramp = np.linspace(0.0, 1.0, 32768)
        self._fft = np.fft.ifft2
        self._exp = np.exp
        self.samples: list = []  # (start, duration)
        self._busy = False
        self._unit()  # FFT plan and first-call costs stay out of the samples

    def _unit(self) -> None:
        for _ in range(8):
            self._fft(self._fft_in)
            self._exp(-3.0 * self._ramp).sum()
            acc = 0
            for i in range(300):
                acc += i * i

    def _sample(self) -> None:
        start = time.perf_counter()
        self._unit()
        self.samples.append((start, time.perf_counter() - start))

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._sample()
            self._busy = False

    def start(self) -> None:
        self._sample()  # one sample even for a pass shorter than the interval
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def time_in(self, a: float, b: float) -> float:
        return sum(d for start, d in self.samples if a <= start < b)

    def slowdown(self) -> float:
        """Mean probe duration over the reference one (> 1: slower machine)."""
        return sum(d for _, d in self.samples) / len(self.samples) / PROBE_REF_S


# ---------------------------------------------------------------------------
# Inputs and API calls

def make_inputs(workload: str, size: str, seed: int) -> dict:
    """Everything the API call needs; the gaussian workloads ignore the seed."""
    import numpy as np
    from mhdlab import solver, verify
    from mhdlab.grid import make_grid

    if workload == "simulate":
        cfg = solver.SolverConfig(**SIMULATE[size])
        g = make_grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
        state0 = solver.initial_data(cfg.init_spec, g, cfg.delta, cfg.seed, M=cfg.M)
        return {"config": cfg, "state0": state0}
    if workload == "decay":
        props, n_times = DECAY[size]
        return {"props": props, "times": np.geomspace(*DECAY_WINDOW, n_times)}
    if workload == "verify":
        keep = set(VERIFY_TINY_CLAIMS) if size == "tiny" else set(verify.CLAIMS)
        for cid in set(verify.CLAIMS) - (keep - set(VERIFY_EXCLUDED_CLAIMS)):
            del verify.CLAIMS[cid]
        return {"seed": seed}
    raise KeyError(workload)


def run_api(workload: str, inputs: dict, out_dir: Path) -> tuple[int, tuple | None]:
    """Make the workload's API calls, writing outputs to out_dir.

    Returns the number of work steps: solver steps between the first and last
    progress callback together with the perf_counter times of those two
    callbacks (simulate), or decay values or claims with None (the steps span
    the whole call).
    """
    from mhdlab import linear, solver, verify

    if workload == "simulate":
        cfg = inputs["config"]
        marks = []
        solver.simulate(cfg, state0=inputs["state0"], out_dir=out_dir,
                        progress=lambda t, rec: marks.append((t, time.perf_counter())))
        (t0, c0), (t1, c1) = marks[0], marks[-1]
        return round((t1 - t0) / cfg.dt), (c0, c1)
    if workload == "decay":
        reports = [linear.propagator_decay_experiment(p, init="gaussian", times=inputs["times"])
                   for p in inputs["props"]]
        (out_dir / "decay.json").write_text(json.dumps([r.to_dict() for r in reports]))
        return len(reports) * len(inputs["times"]), None
    if workload == "verify":
        results = verify.run_all(report_path=out_dir / "report.json", seed=inputs["seed"])
        return len(results), None
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# Outputs and their gates

def extract(workload: str, out_dir: Path) -> dict:
    """The compared outputs, read back from the files the workload wrote."""
    if workload == "simulate":
        lines = [ln for ln in (out_dir / "trajectory.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        manifest = json.loads((out_dir / "run_manifest.json").read_text())
        return {"header": lines[0].split(","),
                "rows": [[float(x) for x in ln.split(",")] for ln in lines[1:]],
                "aborted": manifest["aborted"]}
    if workload == "decay":
        reports = json.loads((out_dir / "decay.json").read_text())
        return {r["quantity_id"]: r for r in reports}
    if workload == "verify":
        report = json.loads((out_dir / "report.json").read_text())
        return {cid: {"verdict": r["verdict"], "fitted_C": r["fitted_C"], "extra": r["extra"]}
                for cid, r in report.items()}
    raise KeyError(workload)


def _value_rtol(claim_id: str) -> float | None:
    """Tolerance on a claim's fitted constant; None where it is seeded or noise."""
    if claim_id.startswith("prop31_est"):
        return POINTWISE_RTOL
    if claim_id.startswith("quad:"):
        return QUADRATURE_RTOL
    return None


def check(workload: str, got: dict, ref: dict) -> list:
    """Correctness checks as (name, passed, detail) triples."""
    checks = []

    def add(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    if workload == "simulate":
        add("simulate.not_aborted", got["aborted"] is None, str(got["aborted"]))
        mass = [row[got["header"].index("mass")] for row in got["rows"]]
        drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
        add("simulate.mass_drift", drift <= MASS_DRIFT_MAX, f"{drift:.3e}")
        same_shape = (got["header"] == ref["header"]
                      and [len(r) for r in got["rows"]] == [len(r) for r in ref["rows"]])
        add("simulate.trajectory_shape", same_shape)
        if same_shape:
            for j, col in enumerate(ref["header"]):
                want = [r[j] for r in ref["rows"]]
                tol = POINTWISE_RTOL * max(abs(w) for w in want)
                worst = max(abs(r[j] - w) for r, w in zip(got["rows"], want))
                add(f"simulate.trajectory.{col}", worst <= tol, f"max diff {worst:.3e}")
    elif workload == "decay":
        import numpy as np
        from mhdlab.linear import DecayReport

        for pid, want in ref.items():
            r = got.get(pid)
            add(f"decay.{pid}.present", r is not None)
            if r is None:
                continue
            rep = DecayReport(r["quantity_id"], np.array(r["times"]), np.array(r["values"]),
                              r["fitted_slope"], r["r_squared"], r["target_slope"],
                              tuple(r["window"]), r["degenerate"])
            add(f"decay.{pid}.passes", rep.passes(tol=DECAY_SLOPE_TOL, r2_min=DECAY_R2_MIN),
                f"slope {rep.fitted_slope:+.4f} r2 {rep.r_squared:.4f}")
            values_ok = len(r["values"]) == len(want["values"]) and all(
                _close(v, w, QUADRATURE_RTOL * abs(w)) for v, w in zip(r["values"], want["values"]))
            add(f"decay.{pid}.values", values_ok)
            add(f"decay.{pid}.slope",
                _close(r["fitted_slope"], want["fitted_slope"], QUADRATURE_RTOL))
    elif workload == "verify":
        add("verify.claim_set", sorted(got) == sorted(ref), f"{len(got)} claims")
        for cid, r in sorted(got.items()):
            add(f"verify.{cid}.verdict", r["verdict"] in ACCEPTED_VERDICTS, r["verdict"])
            want = ref.get(cid)
            rtol = _value_rtol(cid)
            if want is not None and rtol is not None:
                add(f"verify.{cid}.fitted_C",
                    _close(r["fitted_C"], want["fitted_C"], rtol * abs(want["fitted_C"])),
                    f"{r['fitted_C']!r} vs {want['fitted_C']!r}")
            if cid == "kn3_open" and want is not None:
                for key in ("le1_slope", "annulus1_slope"):
                    add(f"verify.kn3_open.{key}",
                        _close(r["extra"][key], want["extra"][key], QUADRATURE_RTOL))
    return checks


def load_reference(workload: str, size: str) -> dict:
    return json.loads(REFERENCE.read_text())[workload][size]


# ---------------------------------------------------------------------------

def env_info(threads: str) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("simulate", "decay", "verify"))
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="trace the pass and write its spans here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import mhdlab

    if Path(mhdlab.__file__).resolve().parent != ROOT / "src" / "mhdlab":
        raise SystemExit(f"mhdlab imported from {mhdlab.__file__}, not this checkout")
    inputs = make_inputs(args.workload, args.size, args.seed)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        import tracing

        probe = SpeedProbe()  # built before tracing, so it calls unwrapped numpy
        tracer = None
        if args.spans is not None:
            tracer = tracing.Tracer(f"{args.workload}-{args.size}-seed{args.seed}-pid{os.getpid()}")
            tracer.install()
        out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        probe.start()
        start = time.perf_counter()
        steps, window = run_api(args.workload, inputs, out_dir)
        end = time.perf_counter()
        probe.stop()
        after = resource.getrusage(resource.RUSAGE_SELF)
        a, b = window or (start, end)
        if tracer is not None:
            tracer.restore()
            tracer.write(args.spans, pauses=probe.samples)
            result["layers"] = {
                **tracing.layer_metrics(tracer, pauses=probe.samples),
                "process.sys_s": after.ru_stime - usage.ru_stime,
                "process.minor_faults": after.ru_minflt - usage.ru_minflt,
            }
        ref = load_reference(args.workload, args.size)
        result.update(
            wall_s=end - start - probe.time_in(start, end),
            slowdown=probe.slowdown(),
            probes=len(probe.samples),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            steps_per_s=steps / (b - a - probe.time_in(a, b)),
            checks=check(args.workload, extract(args.workload, out_dir), ref),
            env=env_info(os.environ.get("OMP_NUM_THREADS", "unset")),
        )
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
