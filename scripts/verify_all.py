"""Run every verification suite on one scenario and summarize.

Prints each suite's table, writes verify_<suite>.json files into --out,
and exits nonzero if any suite fails.
"""

import argparse
import json
import os
import sys

from nmdyn.cli import (FORMAT_VERSION, SUITES, load_config,
                       reference_scenario, run_suite)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="scenario JSON (default: built-in reference)")
    ap.add_argument("--out", default="out/verify")
    ap.add_argument("--threads", type=int,
                    help="ignored: the suites run serially (kept so existing "
                         "command lines still parse)")
    args = ap.parse_args(argv)

    cfg = load_config(args.config if args.config else reference_scenario(),
                      out_override=args.out)
    os.makedirs(args.out, exist_ok=True)
    results = {}
    for name in sorted(SUITES):
        outcome = run_suite(name, cfg)
        results[name] = outcome.passed
        payload = {"format_version": FORMAT_VERSION, "config": cfg.raw,
                   **outcome.to_json()}
        with open(os.path.join(args.out, f"verify_{name}.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(outcome.table())
        print()
    width = max(map(len, results))
    for name, ok in sorted(results.items()):
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
