"""Run every verification suite on one scenario and summarize.

Prints each suite's table, writes verify_<suite>.json files into --out,
and exits 1 if any suite fails, or 2 with one line on stderr when the
scenario, a suite's settings or --out are unusable.
"""

import argparse
import os
import sys

from nmdyn.cli import (SUITES, ConfigError, _out_dir, load_config, reference_scenario,
                       run_suite, write_payload)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="scenario JSON (default: built-in reference)")
    ap.add_argument("--out", default="out/verify")
    ap.add_argument("--threads", type=int,
                    help="ignored: the suites run serially (kept so existing "
                         "command lines still parse)")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config if args.config else reference_scenario(),
                          out_override=args.out)
        out = _out_dir(cfg)
        results = {}
        for name in sorted(SUITES):
            outcome = run_suite(name, cfg)
            results[name] = outcome.passed
            write_payload(os.path.join(out, f"verify_{name}.json"), cfg,
                          outcome.to_json())
            print(outcome.table())
            print()
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    width = max(map(len, results))
    for name, ok in sorted(results.items()):
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}")
    return 0 if all(results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
