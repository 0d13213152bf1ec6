"""Command-line front end: verification suites and scans with JSON/CSV reports.

Commands
--------
zeta              spectral invariants of a model
cylinder-det      one regularized cylinder determinant with its pieces
gluing-check      residual of the determinant gluing identity over an r-grid
adiabatic-scan    Robin-map determinant and adiabatic bracket vs their limits
asym-const        ray-asymptotic constant terms vs the predicted values
blocks-threshold  positivity scan of the two-sided boundary blocks

Exit codes: 0 pass, 1 configuration error, 2 numerical failure,
3 a requested check failed its tolerance.

Reports are deterministic given the configuration: fixed summation
orders, sorted JSON keys; re-running reproduces byte-identical output
apart from the ``timestamp`` field.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import asymptotics as asym
from . import cylinder_dets as cyl
from . import gluing
from .errors import DomainError, SpectralError
from .mode_problems import ModeBC, ModeProblem, mode_logdet_gy, mode_logdet_zeta, robin_mode_roots, RootSequence
from .spectral_models import TangentialModel, load_model, zeta_abs, zeta_sq, zeta_sq_deriv0

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_CHECK_FAILED = 3


class _ConfigExit(Exception):
    """Raised for argparse-level problems so main can map them to exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ConfigExit(message)


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(report: dict, out_path: str | None) -> None:
    report = dict(report)
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
    print(text)


def _write_csv(path: str, header: str, rows) -> None:
    lines = [header]
    lines += [",".join(repr(float(x)) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _r_grid(args) -> list[float]:
    if args.r is not None:
        return [args.r]
    if args.r_min is None or args.r_max is None:
        raise DomainError("need either --r or both --r-min and --r-max")
    if not (0.0 < args.r_min < args.r_max):
        raise DomainError("need 0 < r-min < r-max")
    steps = args.steps
    if steps < 2:
        raise DomainError("need --steps >= 2 for a grid")
    return [args.r_min + (args.r_max - args.r_min) * i / (steps - 1) for i in range(steps)]


def _load_model(args) -> TangentialModel:
    if not args.model:
        raise DomainError("--model FILE is required")
    return load_model(args.model)


def _load_caps(args) -> tuple[gluing.CapOperator, gluing.CapOperator]:
    cap1 = gluing.load_cap(args.cap1) if args.cap1 else gluing.CapOperator()
    cap2 = gluing.load_cap(args.cap2) if args.cap2 else gluing.CapOperator()
    return cap1, cap2


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_zeta(args) -> int:
    model = _load_model(args)
    z0 = zeta_sq(model, 0.0)
    dz, dz_err = zeta_sq_deriv0(model)
    z1 = zeta_abs(model, -1.0)
    report = {
        "model": args.model,
        "zeta_sq_0": z0.value.real,
        "zeta_sq_prime_0": dz,
        "logdet_sq": -dz,
        "zeta_abs_minus1": z1.value.real,
        "heat_trace_constant": asym.heat_trace_constant(model),
        "kernel_dim": model.kernel_dim,
        "est_errors": {
            "zeta_sq_0": z0.est_error,
            "zeta_sq_prime_0": dz_err,
            "zeta_abs_minus1": z1.est_error,
        },
    }
    _emit(report, args.out)
    return EXIT_OK


def cmd_cylinder_det(args) -> int:
    model = _load_model(args)
    if args.r is None:
        raise DomainError("cylinder-det needs --r")
    bc = cyl.parse_bc(args.bc)
    reg = cyl.cylinder_logdet(model, args.r, bc)
    report = {
        "model": args.model,
        "bc": bc.label,
        "r": args.r,
        "logdet": reg.value.real,
        "pieces": reg.to_json_dict()["pieces"],
        "est_error": reg.est_error,
    }
    _emit(report, args.out)
    return EXIT_OK


def _root_route_check(model: TangentialModel, r: float, cache_dir: str | None) -> dict:
    """Spot check of the three lowest modes through the transcendental-root
    zeta route against the closed forms, with optional root caching."""
    checks = []
    lines = list(model.modes(max_count=3, lam_max=None if model.kind == "arithmetic" else math.inf))
    for lam, _ in lines[:3]:
        seq = None
        cache_file = None
        if cache_dir:
            cache_file = Path(cache_dir) / f"roots_robin_{lam:.12g}_{r:.12g}_40.json"
            if cache_file.exists():
                seq = RootSequence.from_json(cache_file.read_text(encoding="utf-8"))
        if seq is None:
            seq = robin_mode_roots(lam, r, 40)
            if cache_file is not None:
                cache_file.parent.mkdir(parents=True, exist_ok=True)
                cache_file.write_text(seq.to_json() + "\n", encoding="utf-8")
        zeta_route = mode_logdet_zeta(seq)
        closed = mode_logdet_gy(ModeProblem(lam, r, right=ModeBC.ROBIN_ABS))
        checks.append({"lam": lam, "zeta_route": zeta_route, "closed_form": closed,
                       "abs_dev": abs(zeta_route - closed)})
    return {"r": r, "modes": checks, "pass": all(c["abs_dev"] <= 1e-4 for c in checks)}


def cmd_gluing_check(args) -> int:
    model = _load_model(args)
    tol = args.tol if args.tol is not None else 1e-8
    grid = _r_grid(args) if (args.r is not None or args.r_min is not None) else [0.5, 1.0, 2.0, 4.0]
    rows = []
    worst = 0.0
    for r in grid:
        resid = cyl.gluing_identity_residual(model, r)
        est = (cyl.cylinder_logdet(model, r, cyl.D_PLT).est_error
               + cyl.cylinder_logdet(model, r, cyl.PGE_D).est_error
               + 2.0 * cyl.cylinder_logdet(model, r, cyl.DD).est_error
               + gluing.robin_dtn_logdet(model, r).est_error)
        # a tolerance below the assembly's own error bound cannot be certified
        rows.append({"r": r, "residual": resid, "est_error": est,
                     "pass": abs(resid) <= tol and est <= tol})
        worst = max(worst, abs(resid))
    ok = all(row["pass"] for row in rows)
    report = {
        "model": args.model,
        "tolerance": tol,
        "rows": rows,
        "worst_residual": worst,
        "status": "PASS" if ok else "FAIL",
    }
    if args.cache is not None:
        report["root_route_check"] = _root_route_check(model, grid[0], args.cache)
        ok = ok and report["root_route_check"]["pass"]
        report["status"] = "PASS" if ok else "FAIL"
    if args.csv:
        _write_csv(args.csv, "r,residual,est_error",
                   [(row["r"], row["residual"], row["est_error"]) for row in rows])
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_adiabatic_scan(args) -> int:
    model = _load_model(args)
    if model.kernel_dim != 0:
        raise DomainError("adiabatic scan requires a model with trivial kernel")
    cap1, cap2 = _load_caps(args)
    grid = _r_grid(args) if (args.r is not None or args.r_min is not None) else [
        1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    limit, _ = gluing.robin_dtn_limit(model)
    bracket_limit = -limit
    rows = []
    for r in grid:
        q = gluing.robin_dtn_logdet(model, r).value.real
        bracket = gluing.adiabatic_bracket(model, cap1, cap2, r)
        rows.append({
            "r": r,
            "q_logdet": q,
            "bracket": bracket,
            "limit": bracket_limit,
            "residual": bracket - bracket_limit,
            "q_gap": q - limit,
            "q_envelope": gluing.robin_dtn_limit_bound(model, r),
        })
    lam_min = model.lambda_min()
    rate, _ = gluing.fit_exp_decay([row["r"] for row in rows],
                                   [row["q_gap"] for row in rows])
    tol = args.tol if args.tol is not None else 1e-4
    envelope_ok = all(abs(row["q_gap"]) <= row["q_envelope"] for row in rows)
    slope_ok = abs(rate - 2.0 * lam_min) <= 0.05 * 2.0 * lam_min
    bracket_ok = abs(rows[-1]["residual"]) <= tol
    ok = envelope_ok and slope_ok and bracket_ok
    report = {
        "model": args.model,
        "q_limit": limit,
        "bracket_limit": bracket_limit,
        "rows": rows,
        "decay_rate_fit": rate,
        "decay_rate_target": 2.0 * lam_min,
        "checks": {"envelope": envelope_ok, "slope": slope_ok,
                   "bracket_at_rmax": bracket_ok},
        "status": "PASS" if ok else "FAIL",
    }
    if args.csv:
        _write_csv(args.csv, "r,bracket,limit,residual",
                   [(row["r"], row["bracket"], row["limit"], row["residual"])
                    for row in rows])
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_asym_const(args) -> int:
    model = _load_model(args)
    r = args.r if args.r is not None else 2.0
    t_grid = asym.default_t_grid(args.t_min, args.t_max, args.t_steps)
    m = args.m
    ray_indices = range(m) if args.ray is None else [args.ray]
    d_coeff = asym.heat_trace_constant(model)
    rows = []
    csv_rows = []
    for k in ray_indices:
        ray = asym.make_ray(m, k)
        samples = [(t, asym.shifted_robin_logdet(model, r, ray, t).value) for t in t_grid]
        res = asym.fit_constant_term(samples, model, ray)
        tol = args.tol if args.tol is not None else max(1e-3, 0.05 * abs(res.predicted))
        rows.append({
            "k": k,
            "theta": ray.theta,
            "pi0": res.pi0,
            "predicted": res.predicted,
            "abs_dev": abs(res.pi0 - res.predicted),
            "residual_norm": res.residual_norm,
            "pass": abs(res.pi0 - res.predicted) <= tol,
        })
        csv_rows += [(t, v.real, v.imag) for t, v in samples]
    ok = all(row["pass"] for row in rows)
    report = {
        "model": args.model,
        "m": m,
        "r": r,
        "heat_trace_constant": d_coeff,
        "rays": rows,
    }
    if args.ray is None:
        total = complex(sum(row["pi0"] for row in rows))
        theta_sum = math.fsum(row["theta"] for row in rows)
        sum_tol = 2e-3 * max(1.0, abs(d_coeff))
        sum_ok = abs(total) <= sum_tol and theta_sum == 0.0
        report["sum_check"] = {"total": total, "theta_sum": theta_sum,
                               "tolerance": sum_tol, "pass": sum_ok}
        ok = ok and sum_ok
    report["status"] = "PASS" if ok else "FAIL"
    if args.csv:
        _write_csv(args.csv, "t,re_logdet,im_logdet", csv_rows)
    _emit(report, args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_blocks_threshold(args) -> int:
    model = _load_model(args)
    cap1, cap2 = _load_caps(args)
    grid = _r_grid(args) if (args.r is not None or args.r_min is not None) else [
        0.25 * i for i in range(1, 41)]
    rows = []
    for r in grid:
        lo, lam = gluing.blocks_min_eig(model, cap1, cap2, r)
        rows.append({"r": r, "min_eig": lo, "argmin_lam": lam})
    # first grid point with a positive minimum, refined by bisection when a
    # sign change precedes it
    r0 = None
    for prev, row in zip([None] + rows[:-1], rows):
        if row["min_eig"] > 0.0:
            r0 = row["r"]
            if prev is not None and prev["min_eig"] <= 0.0:
                lo_r, hi_r = prev["r"], row["r"]
                for _ in range(60):
                    mid = 0.5 * (lo_r + hi_r)
                    if gluing.blocks_min_eig(model, cap1, cap2, mid)[0] > 0.0:
                        hi_r = mid
                    else:
                        lo_r = mid
                r0 = hi_r
            break
    report = {
        "model": args.model,
        "rows": rows,
        "positivity_threshold_r0": r0,
        "all_positive": all(row["min_eig"] > 0.0 for row in rows),
    }
    if args.csv:
        _write_csv(args.csv, "r,min_eig,argmin_lam",
                   [(row["r"], row["min_eig"], row["argmin_lam"]) for row in rows])
    _emit(report, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _length(text: str) -> float:
    """argparse type of the cylinder lengths: a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"need a finite length > 0, got {text!r}")
    return value


_FLAGS = {
    "--model": dict(required=True, help="model JSON file"),
    "--cap1": dict(help="cap JSON file for side 1"),
    "--cap2": dict(help="cap JSON file for side 2"),
    "--r": dict(type=_length, default=None),
    "--r-min": dict(type=_length, default=None, dest="r_min"),
    "--r-max": dict(type=_length, default=None, dest="r_max"),
    "--steps": dict(type=int, default=8),
    "--t-min": dict(type=float, default=1e3, dest="t_min"),
    "--t-max": dict(type=float, default=1e5, dest="t_max"),
    "--t-steps": dict(type=int, default=12, dest="t_steps"),
    "--ray": dict(type=int, default=None, help="ray index (default: all)"),
    "--m": dict(type=int, default=4, help="size of the ray angle set"),
    "--tol": dict(type=float, default=None),
    "--bc": dict(default="D,D", help="boundary pair, e.g. 'D,P<'"),
    "--out": dict(help="write the JSON report here"),
    "--csv": dict(help="write the CSV table here"),
    "--cache": dict(help="root-sequence cache directory"),
}

_R_GRID = ("--r", "--r-min", "--r-max", "--steps")

# each command registers --model, --out and exactly the other flags it reads
_COMMANDS = {
    "zeta": (cmd_zeta, ()),
    "cylinder-det": (cmd_cylinder_det, ("--r", "--bc")),
    "gluing-check": (cmd_gluing_check, (*_R_GRID, "--tol", "--cache", "--csv")),
    "adiabatic-scan": (cmd_adiabatic_scan, ("--cap1", "--cap2", *_R_GRID, "--tol", "--csv")),
    "asym-const": (cmd_asym_const, ("--r", "--t-min", "--t-max", "--t-steps", "--ray", "--m",
                                    "--tol", "--csv")),
    "blocks-threshold": (cmd_blocks_threshold, ("--cap1", "--cap2", *_R_GRID, "--csv")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="cylzeta", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in ("--model", *flags, "--out"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _ConfigExit as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SpectralError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
