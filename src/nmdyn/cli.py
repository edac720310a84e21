"""Command-line interface: the four subcommands and their output files.

* ``simulate``  — one trajectory; writes trajectory.csv + summary.json.
* ``ensemble``  — sample the initial measure, push every sample through the
  flow; writes ensemble.csv + reports.json (moments, characteristic checks).
* ``verify``    — run one named verification suite (``suites``), or ``all``
  (a refused suite is listed and the rest still run); exit code 0 iff every
  check passes.
* ``hypotheses``— form-factor integrability report for the configured grid.

Each reads one scenario (``config.load_config``), and every output file
embeds the resolved scenario plus a format-version field.  ``_json_chunks``
is the one JSON encoder: it writes a result dataclass as the dict of its
fields, an array as its ``tolist()`` and a complex number as [re, im].
Exit codes: 0 success / all checks pass, 1 suite failure, 2 configuration
problem (schema violation, inconsistent shapes, or a flagged form factor
without --allow-flagged), 3 numerical abort (non-finite state); ``guarded``
gives 2 and 3 with one stderr line, for ``main`` and the scripts alike.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from .config import (FORMAT_VERSION, ConfigError, ScenarioConfig, load_config,
                     reference_scenario)
from .integrator import (FlaggedHypothesesError, NumericalBlowupError, _step_count, evolve,
                         trajectory_to_csv)
from .interaction import check_hypotheses
from .measures import (EnsemblePropagationError, _characteristic_checks, _characteristic_terms,
                       _moment_summary, _moment_terms, _pushed_blocks, _streamed, _table_terms,
                       _write_table, sample_measure)
from .state import point_to_json
from .suites import SUITES, _random_direction, run_suite

__all__ = ["guarded", "main", "write_payload"]

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _scalar_json(value) -> str:
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    return json.dumps(value)


def _plain(value):
    """A result's JSON form: a dataclass as the dict of its fields, an array
    as its ``tolist()``, a complex number as ``[re, im]``; else ``value``."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _json_chunks(value, indent: str = ""):
    """The text of ``json.dump(value, indent=2, sort_keys=True)``, in pieces,
    with ``_plain`` applied at every level.

    With an indent, json falls back to its pure-Python encoder, which
    formats each float separately.  Here a list of plain floats and ints is
    written from the repr of 1,024 items at a time, which spells every item
    as json does unless one is not finite.  Other values that json does not
    encode are left to json, which rejects them.
    """
    value = _plain(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        for i, key in enumerate(sorted(value)):
            name = key if isinstance(key, str) else _scalar_json(key)
            yield ("{\n" if i == 0 else ",\n") + inner + json.dumps(name) + ": "
            yield from _json_chunks(value[key], inner)
        yield "\n" + indent + "}"
    elif isinstance(value, (list, tuple)) and value:
        yield "[\n" + inner
        if set(map(type, value)) <= {float, int}:
            for start in range(0, len(value), 1024):
                part = list(value[start:start + 1024])
                text = repr(part)[1:-1]  # "n" only in nan and inf
                yield ((sep if start else "")
                       + (sep.join(map(_scalar_json, part)) if "n" in text
                          else text.replace(", ", sep)))
        else:
            for i, item in enumerate(value):
                yield sep if i else ""
                yield from _json_chunks(item, inner)
        yield "\n" + indent + "]"
    elif isinstance(value, (dict, list, tuple)):
        yield "{}" if isinstance(value, dict) else "[]"
    else:
        yield _scalar_json(value)


def write_payload(path: str, cfg: ScenarioConfig, body) -> None:
    """Write body, a dict or a result dataclass, as JSON, after the format
    version and the scenario it ran: the bytes of ``_json_chunks`` plus a
    newline.
    """
    payload = {"format_version": FORMAT_VERSION, "config": cfg.raw, **_plain(body)}
    with open(path, "w") as handle:
        handle.writelines(_json_chunks(payload))
        handle.write("\n")


def _write_csv(path: str, cfg: ScenarioConfig, writer) -> None:
    with open(path, "w") as handle:
        handle.write(f"# format-version: {FORMAT_VERSION}\n")
        handle.write(f"# config: {json.dumps(cfg.raw, sort_keys=True)}\n")
        writer(handle)


def _out_dir(cfg: ScenarioConfig) -> str:
    try:
        os.makedirs(cfg.output, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"--out: cannot use {cfg.output!r} as the output "
                          f"directory: {err.strerror}") from err
    return cfg.output


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    u0 = cfg.require_point()
    # only the endpoint is written: keep rows 0 and n (one row at T = 0)
    traj = evolve(u0, cfg.T, cfg.dt, cfg.spec, cfg.pot, scheme=cfg.scheme,
                  store_every=max(1, _step_count(cfg.T, cfg.dt)), allow_flagged=args.allow_flagged)
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "trajectory.csv"), cfg,
               lambda handle: trajectory_to_csv(traj, handle))
    h = traj.energies
    drift = float(np.max(np.abs(h - h[0]))) / max(abs(h[0]), 1e-300)
    write_payload(os.path.join(out, "summary.json"), cfg, {
        "steps": traj.n_steps,
        "energy_initial": float(h[0]),
        "energy_final": float(h[-1]),
        "relative_energy_drift": drift,
        "final_norms": {"X0": float(traj.norms[-1, 0]),
                        "X12": float(traj.norms[-1, 1]),
                        "X1": float(traj.norms[-1, 2])},
        "endpoint": point_to_json(traj.endpoint()),
    })
    print(f"simulate: {traj.n_steps} steps, relative energy drift "
          f"{drift:.3e}; wrote {out}/trajectory.csv, {out}/summary.json")
    return 0


def cmd_ensemble(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    measure = cfg.require_measure()
    rng = np.random.default_rng(cfg.seed)
    ys = [_random_direction(rng, cfg.grid, cfg.spec.masses.size) for _ in range(3)]
    blocks = _pushed_blocks(sample_measure(measure, cfg.m_samples, cfg.seed), cfg.T, cfg.dt,
                            cfg.spec, cfg.pot, cfg.scheme, cfg.snapshot_every, args.allow_flagged)
    char, moments, table = _streamed(
        blocks, lambda b: _characteristic_terms(b, ys, cfg.T, 0.0, 0.0, cfg.spec, cfg.pot),
        _moment_terms, _table_terms)
    char = _characteristic_checks(*char, cfg.T, 0.0, 0.0)
    moments = _moment_summary(cfg.grid, cfg.spec, cfg.pot, *moments)
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "ensemble.csv"), cfg,
               lambda handle: _write_table(handle, *table))
    write_payload(os.path.join(out, "reports.json"), cfg, {
        "moments": moments,
        "characteristic": char,
    })
    print(f"ensemble: {cfg.m_samples} samples to T={cfg.T}; moment envelope "
          f"violations {moments.violations_bounded}+{moments.violations_exp}; "
          f"wrote {out}/ensemble.csv, {out}/reports.json")
    return 0


def cmd_verify(args) -> int:
    """One suite, or under ``all`` each suite through ``guarded``: a refusal (2)
    is listed as REFUSED and the rest run; a numerical abort (3) ends the run."""
    source = args.config if args.config else reference_scenario()
    cfg = load_config(source, seed_override=args.seed, out_override=args.out)
    kwargs = {"allow_flagged": args.allow_flagged}
    if args.draws is not None:
        kwargs["draws"] = args.draws
    every = args.suite == "all"

    def one(name):
        outcome = run_suite(name, cfg, **kwargs)
        write_payload(os.path.join(_out_dir(cfg), f"verify_{name}.json"), cfg, outcome)
        print(outcome.table() + ("\n" if every else ""))
        return 0 if outcome.passed else 1

    if not every:
        return one(args.suite)
    codes = {}
    for name in sorted(SUITES):
        codes[name] = guarded(one, name)
        if codes[name] == 3:
            return 3
    width = max(map(len, codes))
    for name, code in codes.items():
        print(f"{name:<{width}}  {('PASS', 'FAIL', 'REFUSED')[code]}")
    return max(codes.values())


def cmd_hypotheses(args) -> int:
    cfg = load_config(args.config, seed_override=args.seed,
                      out_override=args.out)
    report = check_hypotheses(cfg.spec, 0.5, cfg.grid)
    out = _out_dir(cfg)
    write_payload(os.path.join(out, "hypotheses.json"), cfg, {"hypotheses": report})
    flag = "FLAGGED" if report.flagged else "stable"
    print(f"hypotheses: form-factor norms {flag}; wrote {out}/hypotheses.json")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nmdyn",
        description="Newton-Maxwell dynamics: simulation, ensemble "
                    "transport, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("config", help="scenario JSON file")
        p.add_argument("--out", default=None,
                       help="output directory (default: config's, else '.')")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's ensemble seed")
        p.add_argument("--threads", type=int, default=None,
                       help="ignored: ensembles run serially (kept so existing "
                            "command lines still parse)")
        p.add_argument("--allow-flagged", action="store_true",
                       help="run even if the hypothesis check flags the grid")

    p = sub.add_parser("simulate", help="propagate one initial point")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="push a sampled measure through the flow")
    common(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("verify", help="run a named verification suite, or all")
    p.add_argument("suite", choices=["all", *sorted(SUITES)])
    p.add_argument("config", nargs="?", default=None,
                   help="scenario JSON file (default: built-in reference)")
    p.add_argument("--draws", type=int, default=None,
                   help="random draws for sampling-based suites")
    common(p, needs_config=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hypotheses", help="form-factor integrability report")
    common(p)
    p.set_defaults(func=cmd_hypotheses)
    return parser


# each refusal and numerical abort: error types, stderr prefix, exit code
_FAILURES = ((ConfigError, "config error", 2),
             (FlaggedHypothesesError, "hypothesis flag", 2),
             ((NumericalBlowupError, EnsemblePropagationError), "numerical abort", 3))


def guarded(run, *args) -> int:
    """run(*args)'s exit code; a refusal or numerical abort prints one stderr
    line under its prefix and gives its documented code instead."""
    try:
        return run(*args)
    except Exception as err:
        for kind, prefix, code in _FAILURES:
            if isinstance(err, kind):
                print(f"{prefix}: {err}", file=sys.stderr)
                return code
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
