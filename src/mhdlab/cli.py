"""Command-line entry point: kernel scans, linear-flow experiments, the
nonlinear solver, and the verification suites, all emitting plot-ready CSV
or JSON plus a run manifest."""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import format_value as _fmt, write_manifest
from . import kernel as _kernel
from . import linear as _linear
from . import solver as _solver
from . import verify as _verify

def _write_manifest(out_path: Path, ns, outputs, t_start: float,
                    config_digest: str = "", seed=None) -> None:
    """The command's manifest; the digest defaults to that of its arguments."""
    write_manifest(out_path, outputs, command_line=" ".join(sys.argv),
                   config_digest=config_digest or _digest_args(ns),
                   seed=getattr(ns, "seed", None) if seed is None else seed,
                   start_time=t_start, end_time=time.time())


def _digest_args(ns: argparse.Namespace) -> str:
    payload = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _csv_manifest_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".manifest.json")


def _emit_csv(rows, out: str) -> list[Path]:
    """Write rows to `out` ("-" is stdout); returns the files written."""
    text = "\n".join(",".join(_fmt(x) for x in row) for row in rows) + "\n"
    if out == "-":
        sys.stdout.write(text)
        return []
    path = Path(out)
    path.write_text(text)
    return [path]


def _parse_float_list(text: str):
    return [float(x) for x in text.split(",") if x.strip() != ""]


# ---------------------------------------------------------------------------


def cmd_kernel_scan(ns) -> int:
    t_start = time.time()
    ts = _parse_float_list(ns.t)
    if not np.isfinite(ts).all():
        raise ValueError(f"--t: times must be finite, got {ns.t}")
    if negative := [t for t in ts if t < 0]:
        raise ValueError(f"--t: times must be nonnegative, got {_fmt(negative[0])}")
    ks = _verify.sample_axis(ns.kmax, ns.n)
    rows = [["t", "xi", "eta", "A", "K", "K1", "dtK", "ddtK", "comp",
             "comp_x", "dt_comp"] + [f"envelope_{i}" for i in range(1, 9)]]
    XI, ETA = np.meshgrid(ks, ks, indexing="ij")
    for t in ts:
        kv = _kernel.kernel_values(t, XI, ETA)
        env = [_kernel.bound_envelope(i, t, XI, ETA, ns.c_decay) for i in range(1, 9)]
        for i in range(ns.n):
            for j in range(ns.n):
                rows.append([t, XI[i, j], ETA[i, j], kv.A[i, j], kv.K[i, j],
                             kv.K1[i, j], kv.dtK[i, j], kv.ddtK[i, j],
                             kv.comp[i, j], kv.comp_x[i, j], kv.dt_comp[i, j]]
                            + [float(e[i, j]) for e in env])
    outputs = _emit_csv(rows, ns.out)
    if outputs:
        _write_manifest(_csv_manifest_path(outputs[0]), ns, outputs, t_start)
    return 0


def cmd_linear_oracle(ns) -> int:
    t_start = time.time()
    res = _linear.oracle_scan(samples=ns.samples, seed=ns.seed)
    payload = json.dumps(res, indent=2, default=float) + "\n"
    if ns.json == "-":
        sys.stdout.write(payload)
    else:
        path = Path(ns.json)
        path.write_text(payload)
        _write_manifest(path.with_suffix(".manifest.json"), ns, [path], t_start)
    return 0 if res["max_rel_err"] <= 1e-8 else 1


def cmd_linear_charpoly(ns) -> int:
    res = _verify.check_charpoly(kmax=ns.kmax, n=ns.n)
    print(f"max residual ratio (vs 1e-10*(1+A^8)): {_fmt(res.max_ratio)} "
          f"at {res.worst}")
    return 0 if res.verdict == "PASS" else 1


def cmd_linear_decay(ns) -> int:
    t_start = time.time()
    if 0 < ns.points < 3:
        raise ValueError(f"--points: a slope fit needs at least 3 times, got {ns.points}")
    times = np.geomspace(ns.t0, ns.t1, ns.points)
    report = _linear.propagator_decay_experiment(ns.prop, init=ns.init, times=times,
                                                 seed=ns.seed)
    print(f"{ns.prop}: fitted slope {report.fitted_slope:+.4f} "
          f"(target {report.target_slope:+.2f}), r^2 = {report.r_squared:.5f}")
    # one manifest lists every file written; it sits beside the CSV if there is one
    outputs, manifest = [], None
    if ns.csv:
        rows = [["t", "value"]] + [[float(t), float(v)]
                                   for t, v in zip(report.times, report.values)]
        outputs += _emit_csv(rows, ns.csv)
        if outputs:
            manifest = _csv_manifest_path(outputs[0])
    if ns.json:
        path = Path(ns.json)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        outputs.append(path)
        manifest = manifest or path.with_suffix(".manifest.json")
    if outputs:
        _write_manifest(manifest, ns, outputs, t_start)
    return 0


def cmd_linear_symbol_norm(ns) -> int:
    region = _linear.parse_region(ns.region)
    val = _linear.symbol_norm(ns.symbol, region, ns.q_xi, ns.q_eta, ns.t)
    print(_fmt(val))
    return 0


def _print_progress(t: float, record) -> None:
    """One stderr line per observation after t = 0."""
    s = record.snapshots[-1]
    print(f"t={t:.6g} energy={s.energy:.6e} sup_n={s.sup_n:.6e}", file=sys.stderr, flush=True)


def cmd_simulate(ns) -> int:
    t_start = time.time()
    try:
        cfg = _solver.SolverConfig.from_json(ns.config) if ns.config else _solver.SolverConfig()
        if not ns.config:
            cfg.validate()
    except _solver.ConfigError as err:
        print("config errors:", file=sys.stderr)
        for p in err.problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    out = Path(ns.out)
    out.mkdir(parents=True, exist_ok=True)
    record = _solver.simulate(cfg, out_dir=out,
                              progress=_print_progress if ns.progress else None)
    outputs = [out / "trajectory.csv", out / "run_manifest.json"]
    _write_manifest(out / "manifest.json", ns, outputs, t_start, cfg.digest(),
                    seed=cfg.seed)
    if record.aborted:
        print(f"run aborted: {record.aborted}", file=sys.stderr)
        return 1
    print(f"completed: {len(record.times)} outputs in {out}")
    return 0


def cmd_verify(ns) -> int:
    t_start = time.time()
    if ns.mode == "one":
        if ns.claim not in _verify.CLAIMS:
            print(f"unknown claim {ns.claim!r}; known claims:", file=sys.stderr)
            for cid in sorted(_verify.CLAIMS):
                print(f"  {cid}", file=sys.stderr)
            return 2
        res = _verify.run_claim(ns.claim, seed=ns.seed)
        print(json.dumps(res.to_dict(), indent=2, default=float))
        return 0 if res.verdict in ("PASS", "INFO") else 1
    results = _verify.run_all(report_path=ns.report, seed=ns.seed)
    failed = [cid for cid, r in results.items() if r.verdict == "FAIL"]
    for cid in sorted(results):
        r = results[cid]
        print(f"{r.verdict:4s} {cid}: C = {_fmt(float(r.fitted_C))}")
    if ns.report:
        _write_manifest(Path(ns.report).with_suffix(".manifest.json"), ns,
                        [Path(ns.report)], t_start)
    if failed:
        print(f"FAILED claims: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhdlab",
        description="Numerical laboratory for the linear kernels and small-data "
                    "dynamics of 2D compressible MHD without magnetic diffusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_kernel = sub.add_parser("kernel", help="kernel symbol tools")
    kernel_sub = p_kernel.add_subparsers(dest="subcommand", required=True)
    p_scan = kernel_sub.add_parser("scan", help="tabulate kernel symbols and envelopes")
    p_scan.add_argument("--t", required=True, help="comma-separated times")
    p_scan.add_argument("--kmax", type=float, default=8.0)
    p_scan.add_argument("--n", type=int, default=64)
    p_scan.add_argument("--c-decay", type=float, default=_kernel.DEFAULT_C_DECAY)
    p_scan.add_argument("--out", default="-")
    p_scan.set_defaults(func=cmd_kernel_scan)

    p_linear = sub.add_parser("linear", help="linear-flow experiments")
    linear_sub = p_linear.add_subparsers(dest="subcommand", required=True)

    p_oracle = linear_sub.add_parser("oracle-test",
                                     help="kernel semigroup vs matrix exponential")
    p_oracle.add_argument("--samples", type=int, default=1000)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--json", default="-")
    p_oracle.set_defaults(func=cmd_linear_oracle)

    p_char = linear_sub.add_parser("charpoly", help="diagonalization residual scan")
    p_char.add_argument("--kmax", type=float, default=8.0)
    p_char.add_argument("--n", type=int, default=64)
    p_char.set_defaults(func=cmd_linear_charpoly)

    p_decay = linear_sub.add_parser("decay", help="propagator decay experiment")
    p_decay.add_argument("--prop", required=True,
                         choices=sorted(_linear.PROPAGATORS))
    p_decay.add_argument("--init", default="gaussian",
                         choices=["gaussian", "band-limited random"])
    p_decay.add_argument("--t0", type=float, default=10.0)
    p_decay.add_argument("--t1", type=float, default=1000.0)
    p_decay.add_argument("--points", type=int, default=12)
    p_decay.add_argument("--seed", type=int, default=0)
    p_decay.add_argument("--csv", default="")
    p_decay.add_argument("--json", default="")
    p_decay.set_defaults(func=cmd_linear_decay)

    p_sym = linear_sub.add_parser("symbol-norm", help="one symbol norm value")
    p_sym.add_argument("--symbol", required=True, choices=sorted(_linear.SYMBOLS))
    p_sym.add_argument("--region", default="le1", help="le1, all, or sim<N>")
    p_sym.add_argument("--q-xi", type=float, default=1.0)
    p_sym.add_argument("--q-eta", type=float, default=1.0)
    p_sym.add_argument("--t", type=float, required=True)
    p_sym.set_defaults(func=cmd_linear_symbol_norm)

    p_sim = sub.add_parser("simulate", help="run the nonlinear solver")
    p_sim.add_argument("--config", default="", help="config JSON path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--progress", action="store_true",
                       help="write one line per observation to stderr")
    p_sim.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", help="inequality verification suites")
    verify_sub = p_verify.add_subparsers(dest="mode", required=True)
    p_all = verify_sub.add_parser("all", help="run every claim")
    p_all.add_argument("--report", default="report.json")
    p_all.add_argument("--seed", type=int, default=0)
    p_all.set_defaults(func=cmd_verify, mode="all")
    p_one = verify_sub.add_parser("one", help="run a single claim")
    p_one.add_argument("--claim", required=True)
    p_one.add_argument("--seed", type=int, default=0)
    p_one.set_defaults(func=cmd_verify, mode="one")

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except ValueError as err:  # the library's named input errors: exit 2, like a usage error
        print(f"mhdlab {ns.command}: {err}", file=sys.stderr)
        return 2
    except _linear.QuadratureError as err:  # valid input, but a value did not converge
        print(f"mhdlab {ns.command}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
