"""The ``gwn`` command line tool.

Subcommands:

* ``loops``      - partition census table for one tensor degree
* ``jacobi``     - three-term coefficients and norms for one cell mass
* ``laguerre``   - orthonormal polynomial coefficient table
* ``stransform`` - evaluate the S-transform of a stored functional
* ``mc``         - Monte Carlo suites (laplace, gram, chaos)
* ``verify``     - deterministic identity suites (theorem5..theorem9,
                   series, multiplication)
* ``all``        - every verify and mc suite in one report

``verify``, ``mc`` and ``all`` share one handler, ``_cmd_suites``: it
checks every input before any suite runs, then calls
``verify.run_verify_suite`` or ``verify.run_mc_suite`` once per suite.
When a given measure (``--measure``) serves more than one MC suite, the
handler owns their shared Gamma-sampler draws: it runs the MC suites in
one ``gammasample.shared_sample_batches`` block, so the first suite to
read a sample pass draws it and the later ones replay it, and the stored
batches are dropped when the suites return or raise.

JSON is the primary output (CSV for the three tables); ``--pretty`` renders
a human table instead.  Identical argv and seed produce byte-identical
output unless ``--timing`` is given.  Exit codes: 0 all cases passed,
1 a suite failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

import numpy as np

from .extfock import ext_inner_n, iter_loop_partitions
from .fieldops import jacobi_coefficients
from .gammasample import shared_sample_batches
from .measure import AtomicMeasure, _unique_keys, load_measure
from .report import align_columns, combine_reports, render_pretty, to_json
from .symtensor import MAX_DEGREE, SymTensor
from .verify import (DEFAULT_MC_SAMPLES, DEFAULT_SE_MULT, MC_SUITES,
                     VERIFY_SUITES, check_suite_sizes, run_mc_suite,
                     run_verify_suite)
from .wickcalc import PolyFunctional, laguerre_system, s_transform


def _f(x) -> str:
    return repr(float(x))


def _emit(text: str, out: str | None) -> None:
    _emit_lines((text,), out)


def _emit_lines(lines, out: str | None) -> None:
    """Write each string of lines as it is produced."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:
        sys.stdout.writelines(lines)


def _loops_csv(n: int) -> str:
    rows = ["blocks,multiplicity,running_sum"]
    total = 0
    for part in iter_loop_partitions(n):
        total += part.multiplicity
        blocks = "|".join(".".join(str(i) for i in b) for b in part.blocks)
        rows.append(f"{blocks},{part.multiplicity},{total}")
    rows.append(f"total,{total},{total}")
    return "\n".join(rows) + "\n"


def _jacobi_csv(sigma: float, N: int) -> str:
    jc = jacobi_coefficients(sigma, N)
    cell = AtomicMeasure([sigma])
    rows = ["n,alpha_n,beta_n,c_n,c_n_from_extnorm,abs_err"]
    for n in range(N + 1):
        t = SymTensor(1, n, np.ones(1))
        ext = math.sqrt(math.factorial(n) * ext_inner_n(cell, t, t))
        rows.append(",".join([str(n), _f(jc.alphas[n]), _f(jc.betas[n]),
                              _f(jc.norms[n]), _f(ext),
                              _f(abs(float(jc.norms[n]) - ext))]))
    return "\n".join(rows) + "\n"


def _laguerre_csv(sigma: float, N: int):
    """CSV lines of the coefficient table, formatted one at a time; the
    table is computed (and its input checked) before the first line."""
    ls = laguerre_system(sigma, N)
    header = "n," + ",".join(f"coeff_{k}" for k in range(N + 1)) + "\n"
    return itertools.chain((header,), (
        str(n) + "," + ",".join(_f(c) for c in row) + "\n"
        for n, row in enumerate(ls.coeffs)))


def _parse_theta(spec: str) -> np.ndarray:
    # JSON integers are read as floats, so a huge one becomes inf, not an
    # OverflowError
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_int=float, object_pairs_hook=_unique_keys)
        if isinstance(data, dict):
            data = data.get("values")
    else:
        data = json.loads(spec, parse_int=float, object_pairs_hook=_unique_keys)
    if not (isinstance(data, list) and all(type(x) is float for x in data)):
        raise ValueError("theta must be a flat JSON list of numbers")
    arr = np.array(data)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta values must be finite")
    return arr


def _emit_table(args, lines) -> int:
    """A table command's CSV lines, or under --pretty their aligned columns
    (the widths need the whole table)."""
    if args.pretty:
        rows = [line.split(",") for line in "".join(lines).strip().split("\n")]
        _emit("\n".join(align_columns(rows)) + "\n", args.out)
    else:
        _emit_lines(lines, args.out)
    return 0


def _cmd_stransform(args) -> int:
    measure = load_measure(args.measure)
    with open(args.functional, "r", encoding="utf-8") as fh:
        p = PolyFunctional.from_json_dict(json.load(fh, object_pairs_hook=_unique_keys))
    theta = _parse_theta(args.theta)
    value = s_transform(p, theta, measure)
    payload = {"value": value}
    text = f"value {value!r}\n" if args.pretty else to_json(payload)
    _emit(text, args.out)
    return 0


def _cmd_suites(args) -> int:
    """The one handler of verify, mc and all.  Every input is checked, in
    this order, before any suite runs: the suite names, --seed (the
    sampler's contract, which every suite stream shares), --se-mult,
    --samples, the measure file and its size against the selected suites'
    limits.  Then one suite's report, or the combined report of all the
    command's suites."""
    pos, opt = args.suite_pos, args.suite
    if pos is not None and opt is not None and pos != opt:
        args.parser.error(f"conflicting suites {pos!r} and {opt!r}")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError(f"--seed must be in 0..2**64-1, got {args.seed}")
    mc = (args.samples, args.se_mult) if args.mc_suites else ()
    if mc and not (math.isfinite(args.se_mult) and args.se_mult > 0):
        raise ValueError(f"--se-mult must be finite and > 0, got "
                         f"{args.se_mult!r}")
    if mc and args.samples < 2:
        raise ValueError(f"--samples must be >= 2 (an MC estimate needs two "
                         f"samples for its standard error), got "
                         f"{args.samples}")
    mu = load_measure(args.measure) if args.measure else None
    suite = pos or opt or "all"
    verify_names = [n for n in sorted(args.verify_suites) if suite in (n, "all")]
    mc_names = [n for n in sorted(args.mc_suites) if suite in (n, "all")]
    if mu is not None:
        check_suite_sizes(verify_names + mc_names, mu)
    reports = [run_verify_suite(n, args.seed, mu) for n in verify_names]
    # with one given measure, every MC suite reads the same Gamma sample
    # passes; they are drawn once for the run and then dropped
    shared = mu is not None and len(mc_names) > 1
    with shared_sample_batches() if shared else contextlib.nullcontext():
        reports += [run_mc_suite(n, args.seed, mu, *mc) for n in mc_names]
    payload = combine_reports(reports, args.seed, args.timing) \
        if suite == "all" else reports[0].to_json_dict(args.timing)
    _emit(render_pretty(payload) if args.pretty else to_json(payload), args.out)
    return 0 if payload["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    shared.add_argument("--pretty", action="store_true",
                        help="human table instead of JSON/CSV")
    shared.add_argument("--timing", action="store_true",
                        help="include wall time in reports (breaks "
                             "byte-identical determinism)")

    parser = argparse.ArgumentParser(
        prog="gwn",
        description="Gamma white noise calculus: tables, Monte Carlo, "
                    "and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loops", parents=[shared],
                       help="partition census for one tensor degree")
    p.add_argument("--n", type=int, required=True, metavar="K",
                   help="tensor degree (census sums to K!)")
    p.set_defaults(func=lambda a: _emit_table(a, [_loops_csv(a.n)]))

    p = sub.add_parser("jacobi", parents=[shared],
                       help="three-term coefficients for one cell mass")
    p.add_argument("--sigma", type=float, required=True, help="cell mass")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help=f"highest degree, at most {MAX_DEGREE} (the "
                        f"c_n_from_extnorm column builds a degree-N tensor)")
    p.set_defaults(func=lambda a: _emit_table(a, [_jacobi_csv(a.sigma, a.n)]))

    p = sub.add_parser("laguerre", parents=[shared],
                       help="orthonormal polynomial coefficients")
    p.add_argument("--sigma", type=float, required=True, help="shape parameter")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="highest degree")
    p.set_defaults(func=lambda a: _emit_table(a, _laguerre_csv(a.sigma, a.n)))

    p = sub.add_parser("stransform", parents=[shared],
                       help="evaluate the S-transform of a stored functional")
    p.add_argument("--functional", required=True, metavar="FILE",
                   help="functional JSON file")
    p.add_argument("--theta", required=True, metavar="SPEC",
                   help="test function: JSON list or path to a JSON file")
    p.add_argument("--measure", required=True, metavar="FILE",
                   help="measure JSON file {\"weights\": [...]}")
    p.set_defaults(func=_cmd_stransform)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--measure", metavar="FILE")
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                         metavar="N")
    sampled.add_argument("--se-mult", type=float, default=DEFAULT_SE_MULT,
                         metavar="X", help="pass band half-width in SE units")
    for command, verify_suites, mc_suites, help_text in (
            ("mc", (), MC_SUITES,
             "Monte Carlo suites against closed-form targets"),
            ("verify", VERIFY_SUITES, (), "deterministic identity suites"),
            ("all", VERIFY_SUITES, MC_SUITES, "every verify and mc suite")):
        p = sub.add_parser(command, help=help_text, parents=[
            shared, seeded] + ([sampled] if mc_suites else []))
        p.set_defaults(func=_cmd_suites, parser=p, verify_suites=verify_suites,
                       mc_suites=mc_suites, suite_pos=None, suite=None)
        if command != "all":
            names = sorted(verify_suites or mc_suites) + ["all"]
            p.add_argument("suite_pos", nargs="?", choices=names,
                           metavar="suite",
                           help=f"one of {', '.join(names)} (default all)")
            p.add_argument("--suite", choices=names)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code) if exc.code else 0
    except (ValueError, OSError) as exc:
        print(f"gwn: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
