"""Command-line entry points.

Subcommands: simulate, pde, converge, check-potential, hamiltonian-test,
fit-exponent.  A single JSON config document drives each run.  Exit codes:
0 all assertions pass, 2 an assertion failed, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dynamics import IntegratorOptions, simulate
from .errors import SignedFlowError
from .hamiltonians import TestFunction, quartic_probe_sweep, rhs_convergence_table
from .harness import (ExperimentConfig, convergence_csv, fit_collision_exponent,
                      quantile_particles, run_convergence, solve_limit_equation)
from .potentials import AUDIT_PROFILES, audit_assumptions, make_potential

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_ASSERTION = 2


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    pot, reg, fld = cfg.build()
    st0 = cfg.particles() if (cfg.initial or {}).get("kind") == "particles" \
        else None
    if st0 is None:
        st0 = quantile_particles(cfg.density(), int(cfg.n_list[0]))
    res = simulate(st0, pot, reg.alpha_of(st0.n), fld, cfg.t_end,
                   IntegratorOptions(rk_tol=cfg.tolerances["rk_tol"]),
                   t_eval=cfg.snapshot_times)
    if args.traj:
        with open(args.traj, "w") as fh:
            fh.write(res.trajectory_csv() + "\n")
    if args.events:
        with open(args.events, "w") as fh:
            fh.write(res.events.to_jsonl() + ("\n" if len(res.events) else ""))
    s = res.stats
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump({**s, "events": len(res.events)}, fh, indent=2)
    print(f"simulated n={st0.n} to t={cfg.t_end}: {len(res.events)} events, "
          f"{s['accepted']} accepted steps, {s['rejected']} rejected, "
          f"{s['force_evals']} force evaluations, "
          f"{s['pair_evals']} pairs swept by them, "
          f"{s['unordered_sweeps']} chunk sweeps of unordered points, "
          f"{s['gap_capped']} steps set by the gap cap, "
          f"{s['contact_scaled']} shrunk by the time to contact, "
          f"{s['snapshot_capped']} by a snapshot time, "
          f"{s['end_capped']} by t_end")
    return EXIT_OK


def _cmd_pde(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    out, info = solve_limit_equation(cfg, args.m)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out.to_csv() + "\n")
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump({"steps": info.steps, "limited_by": info.limited_by,
                       "newton_iters": info.newton_iters,
                       # no step leaves dt_min infinite, which JSON cannot hold
                       "dt_min": info.dt_min if info.steps else None,
                       "max_principle_violation": info.max_principle_violation},
                      fh, indent=2)
    m = args.m if args.m is not None else cfg.regime["m"]
    print(f"pde m={m}: {info.summary()}, max-principle violation "
          f"{info.max_principle_violation:.2e}")
    return EXIT_OK if info.max_principle_violation <= 1e-10 else EXIT_ASSERTION


def _cmd_converge(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    report = run_convergence(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(convergence_csv(report) + "\n")
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(report["stats"], fh, indent=2)
    for row in report["rows"]:
        print(f"n={row['n']:5d} t={row['t']:<6g} distance={row['distance']:.5f}")
    print("PASS" if report["passed"] else "FAIL: " + "; ".join(report["notes"]))
    return EXIT_OK if report["passed"] else EXIT_ASSERTION


def _cmd_check_potential(args) -> int:
    pot = make_potential({"kind": args.pot, **({"a": args.a} if args.a is not None else {})})
    report = audit_assumptions(pot, args.profile)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    for item in report.items:
        print(f"{item.status.upper():9s} {item.item}")
    print("PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_ASSERTION


def _cmd_hamiltonian_test(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    pot, reg, _ = cfg.build()
    quad_tol = cfg.tolerances["quad_tol"]
    if args.lemma == "rhs":
        eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
        rows, limit = rhs_convergence_table(TestFunction.sin(), 0.3, reg.m,
                                            pot, reg, eps_list, quad_tol)
        lines = ["eps,value,abs_err"]
        lines += [f"{e!r},{v!r},{err!r}" for e, v, err in rows]
        if args.out:
            with open(args.out, "w") as fh:
                fh.write("\n".join(lines) + "\n")
        errs = [r[2] for r in rows]
        ok = all(b < a for a, b in zip(errs[:-1], errs[1:])) and \
            errs[-1] <= 0.05 * max(abs(limit), 1e-12)
        for e, v, err in rows:
            print(f"eps={e:.0e} value={v:+.6f} abs_err={err:.3e}")
        print(f"limit={limit:+.6f}", "PASS" if ok else "FAIL")
        return EXIT_OK if ok else EXIT_ASSERTION
    # parabola sweep
    gammas = np.concatenate([-np.geomspace(1e-3, 2.0, 10)[::-1],
                             np.geomspace(1e-3, 2.0, 10)])
    eps_grid = [1.0, 1e-1, 1e-2, 1e-3, 1e-4]
    rows, per_max = quartic_probe_sweep(pot, reg, 2.0, 2.0, eps_grid, gammas,
                                        quad_tol)
    lines = ["eps,gamma,value"]
    lines += [f"{e!r},{g!r},{v!r}" for e, g, v in rows]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    finest = sorted(per_max)[:2]
    lo, hi = per_max[finest[0]], per_max[finest[1]]
    ok = (min(r[2] for r in rows) >= -quad_tol
          and abs(hi - lo) <= 0.2 * max(hi, lo))
    for e in eps_grid:
        print(f"eps={e:.0e} max={per_max[float(e)]:.4f}")
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ASSERTION


def _cmd_fit_exponent(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    pot, reg, fld = cfg.build()
    st0 = cfg.particles()
    res = simulate(st0, pot, reg.alpha_of(st0.n), fld, cfg.t_end,
                   IntegratorOptions(rk_tol=cfg.tolerances["rk_tol"]))
    fit = fit_collision_exponent(res)
    a = pot.singularity_exponent if pot.singularity_exponent is not None else 0.0
    target = 1.0 / (2.0 + a)
    ok = abs(fit.slope - target) <= 0.1 * target
    print(f"slope={fit.slope:.5f} target={target:.5f} "
          f"ci=({fit.ci_low:.4f},{fit.ci_high:.4f})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({**fit.to_dict(), "target": target, "passed": ok}, fh,
                      indent=2)
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_ASSERTION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="signedflow",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="integrate a particle configuration")
    s.add_argument("--config", required=True)
    s.add_argument("--traj", help="trajectory CSV path")
    s.add_argument("--events", help="event JSONL path")
    s.add_argument("--stats", help="step statistics JSON path")
    s.set_defaults(fn=_cmd_simulate)

    s = sub.add_parser("pde", help="solve a limit equation")
    s.add_argument("--config", required=True)
    s.add_argument("--m", type=int, choices=(1, 2, 3))
    s.add_argument("--out", help="grid CSV path")
    s.add_argument("--stats", help="solve statistics JSON path")
    s.set_defaults(fn=_cmd_pde)

    s = sub.add_parser("converge", help="discrete-to-continuum sweep")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="report JSON path")
    s.add_argument("--csv", help="distance table CSV path")
    s.add_argument("--stats", help="step statistics JSON path, one entry per n")
    s.set_defaults(fn=_cmd_converge)

    s = sub.add_parser("check-potential", help="audit an assumption ledger")
    s.add_argument("--pot", required=True,
                   choices=("log", "wall", "riesz", "power_law_force"))
    s.add_argument("--a", type=float, help="exponent for riesz/power-law")
    s.add_argument("--profile", required=True, choices=AUDIT_PROFILES)
    s.add_argument("--out", help="report JSON path")
    s.set_defaults(fn=_cmd_check_potential)

    s = sub.add_parser("hamiltonian-test", help="verify an operator limit")
    s.add_argument("--lemma", required=True, choices=("rhs", "parabola"))
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="table CSV path")
    s.set_defaults(fn=_cmd_hamiltonian_test)

    s = sub.add_parser("fit-exponent", help="collision-exponent regression")
    s.add_argument("--config", required=True)
    s.add_argument("--out", help="fit JSON path")
    s.set_defaults(fn=_cmd_fit_exponent)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SignedFlowError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
