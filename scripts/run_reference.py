"""Run the reference scenario end to end: one trajectory, one ensemble.

Writes config.json, trajectory.csv, summary.json, ensemble.csv and
reports.json into --out.  Pass --config to run another scenario file
instead of the built-in reference.
"""

import argparse
import json
import os

from nmdyn.cli import guarded, main as cli_main
from nmdyn.config import _check_out, reference_scenario


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="scenario JSON (default: built-in reference)")
    ap.add_argument("--out", default="out/reference")
    ap.add_argument("--seed", type=int)
    return guarded(run, ap.parse_args(argv))


def run(args):
    os.makedirs(_check_out(args.out), exist_ok=True)
    if args.config is None:
        config = os.path.join(args.out, "config.json")
        with open(config, "w") as fh:
            json.dump(reference_scenario(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        config = args.config

    extra = []
    if args.seed is not None:
        extra += ["--seed", str(args.seed)]
    rc = cli_main(["simulate", config, "--out", args.out] + extra)
    if rc:
        return rc
    return cli_main(["ensemble", config, "--out", args.out] + extra)


if __name__ == "__main__":
    raise SystemExit(main())
