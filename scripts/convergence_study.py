"""Endpoint-error convergence sweep for both time steppers.

For each scheme, evolve the scenario's initial point over [0, T] at a
geometric ladder of step sizes and measure the X^0 endpoint distance to a
self-referenced fine run (dt_min/4).  Prints error, halving ratio and
observed order per level; optionally appends rows to a CSV.
"""

import argparse
import csv
import math
import sys

from nmdyn.cli import guarded
from nmdyn.config import ConfigError, _check_csv, load_config, reference_scenario
from nmdyn.integrator import SCHEMES, _step_count, evolve
from nmdyn.state import phase_norm


def endpoint(cfg, dt, scheme):
    traj = evolve(cfg.point, cfg.T, dt, cfg.spec, cfg.pot, scheme=scheme,
                  store_every=10**9)
    return traj.endpoint()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="scenario JSON (default: built-in reference)")
    ap.add_argument("--dt-max", type=float, default=0.02)
    ap.add_argument("--levels", type=int, default=4)
    ap.add_argument("--csv", help="append results to this CSV file")
    return guarded(study, ap.parse_args(argv))


def study(args):
    cfg = load_config(args.config if args.config else reference_scenario())
    if args.csv:
        _check_csv(args.csv, "--csv")
    cfg.require_point()
    if cfg.T == 0:
        raise ConfigError("run: the convergence study needs T > 0")
    if args.levels < 1:
        raise ConfigError(f"--levels: need at least 1 level, got {args.levels}")
    dts = [args.dt_max / 2**j for j in range(args.levels)]
    for dt in dts + [dts[-1] / 4.0]:  # the ladder and its reference step
        try:
            _step_count(cfg.T, dt)
        except ValueError as err:
            raise ConfigError(f"--dt-max: {err}") from err
    rows = []
    for scheme in SCHEMES:
        ref = endpoint(cfg, dts[-1] / 4.0, scheme)
        errs = [phase_norm(endpoint(cfg, dt, scheme) - ref, 0.0) for dt in dts]
        print(f"{scheme}  (T={cfg.T}, grid K={cfg.grid.K} N={cfg.grid.N})")
        print(f"  {'dt':>10}  {'X0 error':>12}  {'ratio':>8}  {'order':>6}")
        for j, (dt, err) in enumerate(zip(dts, errs)):
            ratio = errs[j - 1] / err if j else float("nan")
            order = math.log2(ratio) if j else float("nan")
            print(f"  {dt:>10.5g}  {err:>12.4e}  {ratio:>8.3f}  {order:>6.2f}")
            rows.append({"scheme": scheme, "dt": dt, "error": err})
    if args.csv:
        with open(args.csv, "a", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["scheme", "dt", "error"])
            if fh.tell() == 0:
                writer.writeheader()
            writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
