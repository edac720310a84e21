"""Run every verification suite on one scenario and summarize.

``nmdyn verify all [CONFIG] --out OUT``, with --out defaulting to out/verify:
each suite's table and verify_<suite>.json, then every suite as PASS, FAIL
or REFUSED, with nmdyn's exit codes.  --threads is accepted and ignored.
"""

import argparse
import sys

from nmdyn.cli import main as cli_main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="scenario JSON (default: built-in reference)")
    ap.add_argument("--out", default="out/verify")
    ap.add_argument("--threads", type=int, help="ignored; kept so old command lines parse")
    args = ap.parse_args(argv)
    config = [args.config] if args.config else []
    return cli_main(["verify", "all", *config, f"--out={args.out}"])


if __name__ == "__main__":
    sys.exit(main())
