"""Span tracing of mhdlab's layers, driven entirely from the benchmark.

The mhdlab modules import each other's functions by name, so a wrapper only
sees a call when it replaces the name at the place the caller looks it up
(for example ``linear.kernel_values`` for the quadrature symbols and
``kernel.kernel_values`` for the verify scans).  Spans are kept in memory as
``[name, start, end, parent_index, attrs]`` and written out once, at the end.
"""

from __future__ import annotations

import bisect
import json
import resource
import statistics
import time
from collections import Counter

_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
              "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# verify claim id -> reporting group of verify.claims_s.<group>
CLAIM_GROUPS = {
    **{f"prop31_est{k}": "kernel_scans" for k in range(1, 9)},
    **{f"quad:{c}": "basic_quad" for c in (
        "est_At", "est_At_b1", "est_Axit1", "est_Axit2", "est_At2",
        "est_Axit3", "est_Axit4", "est_Axit5")},
    "kn3_open": "kn3_open",
    "oracle": "oracle",
    "charpoly": "oracle",
    "nash": "grid_checks",
    "projector_dt": "grid_checks",
    "elem1": "elementary",
    "sin_ratio": "elementary",
}
CLAIM_GROUP_NAMES = ("kernel_scans", "basic_quad", "kn3_open", "oracle",
                     "grid_checks", "elementary")

LAYER_UNITS = {
    "linear.stepper_build_s": "s",
    "linear.expm_batch_s": "s",
    "linear.stepper_build_rss_mb": "MB",
    "linear.quad_level_ms.p50": "ms",
    "linear.quad_level.count": "count",
    "linear.quad_self_s": "s",
    "linear.quad_levels_per_value": "ratio",
    "linear.mixed_cartesian_s": "s",
    "linear.oracle_scan_s": "s",
    "kernel.kernel_values_s": "s",
    "kernel.kernel_values_calls": "count",
    "kernel.mpoints": "Mpoint",
    "kernel.s_per_mpoint": "s/Mpoint",
    "kernel.noise_floors_s": "s",
    "kernel.bound_envelope_s": "s",
    "solver.step_ms.p50": "ms",
    "solver.step_ms.p90": "ms",
    "solver.nonlinear_terms_ms.p50": "ms",
    "solver.step_self_ms.p50": "ms",
    "solver.fft_forward_per_step": "count",
    "solver.fft_inverse_per_step": "count",
    "grid.x_norm_snapshot_ms.p50": "ms",
    "grid.x_norm_snapshot.count": "count",
    **{f"verify.claims_s.{g}": "s" for g in CLAIM_GROUP_NAMES},
    # kernel time and page faults of the traced pass's API calls
    "process.sys_s": "s",
    "process.minor_faults": "count",
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records one span per wrapped call and counts FFTs made inside steps."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.fft_counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def _traced(self, name: str, fn, points: bool = False, rss: bool = False):
        spans, stack = self.spans, self._stack
        if points:
            import numpy as np

        def wrapper(*args, **kwargs):
            attrs = {}
            if points:
                attrs["points"] = int(np.broadcast(*map(np.asarray, args[:3])).size)
            if rss:
                attrs["rss_before_mb"] = _peak_rss_mb()
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, attrs])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
                if rss:
                    attrs["rss_after_mb"] = _peak_rss_mb()

        return wrapper

    def _counted(self, kind: str, fn):
        spans, stack, counts = self.spans, self._stack, self.fft_counts

        def wrapper(*args, **kwargs):
            if any(spans[i][0] == "solver.step" for i in stack):
                counts[kind] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every traced name of mhdlab, numpy.fft and scipy.fft."""
        import numpy.fft
        import scipy.fft
        from mhdlab import kernel, linear, solver, verify

        kv = self._traced("kernel.kernel_values", kernel.kernel_values, points=True)
        self._patch(kernel, "kernel_values", kv)
        self._patch(linear, "kernel_values", kv)
        for owner, attr, name, extra in (
            (solver.Stepper, "__init__", "linear.stepper_build", {"rss": True}),
            (solver.Stepper, "step", "solver.step", {}),
            (solver, "expm_batch", "linear.expm_batch", {}),
            (solver, "nonlinear_terms", "solver.nonlinear_terms", {}),
            (solver, "x_norm_snapshot", "grid.x_norm_snapshot", {}),
            (linear, "_lq_polar", "linear.quad_level", {}),
            (linear, "_refined", "linear.refined_value", {}),
            (linear, "_mixed_cartesian", "linear.mixed_cartesian", {}),
            (linear, "oracle_scan", "linear.oracle_scan", {}),
            (kernel, "noise_floors", "kernel.noise_floors", {}),
            (kernel, "bound_envelope", "kernel.bound_envelope", {}),
        ):
            self._patch(owner, attr, self._traced(name, getattr(owner, attr), **extra))
        for cid, fn in list(verify.CLAIMS.items()):
            group = CLAIM_GROUPS[cid]
            verify.CLAIMS[cid] = self._traced(f"verify.claim.{group}", fn)
            self._patches.append((verify.CLAIMS, cid, fn))
        for module in (numpy.fft, scipy.fft):
            for attr in _FFT_NAMES:
                kind = "inverse" if attr.startswith("i") else "forward"
                self._patch(module, attr, self._counted(kind, getattr(module, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, pauses=()) -> None:
        payload = {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent", "attrs"],
            "spans": self.spans,
            "pauses": list(pauses),
            "fft_counts_in_steps": dict(self.fft_counts),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _p(values, q: float) -> float:
    """Percentile q (0..100) of the samples; 0.0 when there are none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(tracer: Tracer, pauses=()) -> dict:
    """Per-layer numbers from one traced workload run.

    `pauses` are (start, duration) pairs of work that is not the program's
    (the benchmark's speed probe); each is taken out of the spans it falls in.
    Times of layers the workload never enters are reported as 0 with a call
    count of 0.
    """
    spans = tracer.spans
    starts = [p[0] for p in pauses]
    paused = [0.0]
    for p in pauses:
        paused.append(paused[-1] + p[1])

    def pause_in(a, b):
        return paused[bisect.bisect_left(starts, b)] - paused[bisect.bisect_left(starts, a)]

    dur = [s[2] - s[1] - pause_in(s[1], s[2]) for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child_time[s[3]] += dur[i]

    def idx(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur[i] for i in idx(name))

    def ms(indices, self_time=False):
        return [1e3 * (dur[i] - (child_time[i] if self_time else 0.0)) for i in indices]

    def inside(i, ancestor):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                return True
            parent = spans[parent][3]
        return False

    builds = idx("linear.stepper_build")
    levels = idx("linear.quad_level")
    refined = idx("linear.refined_value")
    kv = idx("kernel.kernel_values")
    steps = idx("solver.step")
    nl = idx("solver.nonlinear_terms")
    snaps = idx("grid.x_norm_snapshot")

    kv_s = sum(dur[i] for i in kv)
    mpoints = sum(spans[i][4]["points"] for i in kv) / 1e6
    refined_levels = sum(1 for i in levels if inside(i, "linear.refined_value"))
    out = {
        "linear.stepper_build_s": sum(dur[i] for i in builds),
        "linear.expm_batch_s": total("linear.expm_batch"),
        "linear.stepper_build_rss_mb": sum(
            spans[i][4]["rss_after_mb"] - spans[i][4]["rss_before_mb"] for i in builds),
        "linear.quad_level_ms.p50": _p(ms(levels), 50),
        "linear.quad_level.count": len(levels),
        "linear.quad_self_s": sum(dur[i] - child_time[i] for i in levels),
        "linear.quad_levels_per_value": refined_levels / len(refined) if refined else 0.0,
        "linear.mixed_cartesian_s": total("linear.mixed_cartesian"),
        "linear.oracle_scan_s": total("linear.oracle_scan"),
        "kernel.kernel_values_s": kv_s,
        "kernel.kernel_values_calls": len(kv),
        "kernel.mpoints": mpoints,
        "kernel.s_per_mpoint": kv_s / mpoints if mpoints else 0.0,
        "kernel.noise_floors_s": total("kernel.noise_floors"),
        "kernel.bound_envelope_s": total("kernel.bound_envelope"),
        "solver.step_ms.p50": _p(ms(steps), 50),
        "solver.step_ms.p90": _p(ms(steps), 90),
        "solver.nonlinear_terms_ms.p50": _p(ms(nl), 50),
        "solver.step_self_ms.p50": _p(ms(steps, self_time=True), 50),
        "solver.fft_forward_per_step": tracer.fft_counts["forward"] / len(steps) if steps else 0.0,
        "solver.fft_inverse_per_step": tracer.fft_counts["inverse"] / len(steps) if steps else 0.0,
        "grid.x_norm_snapshot_ms.p50": _p(ms(snaps), 50),
        "grid.x_norm_snapshot.count": len(snaps),
    }
    for group in CLAIM_GROUP_NAMES:
        out[f"verify.claims_s.{group}"] = total(f"verify.claim.{group}")
    return out
