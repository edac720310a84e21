"""Run every verification suite on one scenario and summarize.

Prints each suite's table, writes verify_<suite>.json files into --out,
and lists every suite as PASS, FAIL or REFUSED.  A suite whose settings
are unusable is refused with one line on stderr, and the rest still run.
Exits 2 when the scenario or --out is unusable (before any suite runs) or
a suite was refused, else 1 if any suite failed, else 0.
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    results = {}
    for name in sorted(SUITES):
        try:
            outcome = run_suite(name, cfg)
        except ConfigError as err:
            print(f"config error: {err}", file=sys.stderr)
            results[name] = "REFUSED"
            continue
        results[name] = "PASS" if outcome.passed else "FAIL"
        write_payload(os.path.join(out, f"verify_{name}.json"), cfg, outcome.to_json())
        print(outcome.table())
        print()
    width = max(map(len, results))
    for name, verdict in results.items():
        print(f"{name:<{width}}  {verdict}")
    verdicts = set(results.values())
    return 2 if "REFUSED" in verdicts else 1 if "FAIL" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
