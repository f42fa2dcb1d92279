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

JSON is the primary output (CSV for the three tables); ``--pretty`` renders
a human table instead.  Identical argv and seed produce byte-identical
output unless ``--timing`` is given.  Exit codes: 0 all cases passed,
1 a suite failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from .extfock import ext_inner_n, iter_loop_partitions
from .fieldops import jacobi_coefficients
from .measure import AtomicMeasure, load_measure
from .report import combine_reports, render_pretty, to_json
from .symtensor import MAX_DEGREE, SymTensor
from .verify import (DEFAULT_MC_SAMPLES, DEFAULT_SE_MULT, MC_SUITES,
                     VERIFY_SUITES, run_mc_all, run_mc_suite, run_verify_all,
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


def _pretty_csv(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.strip().split("\n")]
    widths = [max(len(r[k]) if k < len(r) else 0 for r in rows)
              for k in range(max(map(len, rows)))]
    return "\n".join("  ".join(v.ljust(w) for v, w in zip(r, widths)).rstrip()
                     for r in rows) + "\n"


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
            data = json.load(fh, parse_int=float)
        if isinstance(data, dict):
            data = data.get("values")
    else:
        data = json.loads(spec, parse_int=float)
    if not (isinstance(data, list) and all(type(x) is float for x in data)):
        raise ValueError("theta must be a flat JSON list of numbers")
    arr = np.array(data)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta values must be finite")
    return arr


def _check_se_mult(x: float) -> None:
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"--se-mult must be finite and > 0, got {x!r}")


def _check_samples(n: int) -> None:
    if n < 2:
        raise ValueError(f"--samples must be >= 2 (an MC estimate needs two "
                         f"samples for its standard error), got {n}")


def _cmd_loops(args) -> int:
    text = _loops_csv(args.n)
    _emit(_pretty_csv(text) if args.pretty else text, args.out)
    return 0


def _cmd_jacobi(args) -> int:
    text = _jacobi_csv(args.sigma, args.n)
    _emit(_pretty_csv(text) if args.pretty else text, args.out)
    return 0


def _cmd_laguerre(args) -> int:
    lines = _laguerre_csv(args.sigma, args.n)
    if args.pretty:  # column widths need the whole table
        _emit(_pretty_csv("".join(lines)), args.out)
    else:
        _emit_lines(lines, args.out)
    return 0


def _cmd_stransform(args) -> int:
    measure = load_measure(args.measure)
    with open(args.functional, "r", encoding="utf-8") as fh:
        p = PolyFunctional.from_json_dict(json.load(fh))
    theta = _parse_theta(args.theta)
    value = s_transform(p, theta, measure)
    payload = {"value": value}
    text = f"value {value!r}\n" if args.pretty else to_json(payload)
    _emit(text, args.out)
    return 0


def _resolve_suite(args, parser: argparse.ArgumentParser) -> str:
    pos, opt = args.suite_pos, args.suite
    if pos is not None and opt is not None and pos != opt:
        parser.error(f"conflicting suites {pos!r} and {opt!r}")
    return pos or opt or "all"


def _emit_payload(args, payload: dict) -> int:
    _emit(render_pretty(payload) if args.pretty else to_json(payload), args.out)
    return 0 if payload["pass"] else 1


def _run_suites(args, suite: str, run_one, run_all, *extra) -> int:
    """One suite's report, or the combined report of all of them."""
    mu = load_measure(args.measure) if args.measure else None
    if suite == "all":
        return _emit_payload(args, combine_reports(
            run_all(args.seed, mu, *extra), args.seed, args.timing))
    return _emit_payload(args, run_one(suite, args.seed, mu, *extra)
                         .to_json_dict(args.timing))


def _cmd_verify(args) -> int:
    return _run_suites(args, _resolve_suite(args, args.parser),
                       run_verify_suite, run_verify_all)


def _cmd_mc(args) -> int:
    suite = _resolve_suite(args, args.parser)
    _check_se_mult(args.se_mult)
    _check_samples(args.samples)
    return _run_suites(args, suite, run_mc_suite, run_mc_all, args.samples,
                       args.se_mult)


def _cmd_all(args) -> int:
    _check_se_mult(args.se_mult)
    _check_samples(args.samples)
    mu = load_measure(args.measure) if args.measure else None
    reps = run_verify_all(args.seed, mu) \
        + run_mc_all(args.seed, mu, args.samples, args.se_mult)
    return _emit_payload(args, combine_reports(reps, args.seed, args.timing))


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
    p.set_defaults(func=_cmd_loops)

    p = sub.add_parser("jacobi", parents=[shared],
                       help="three-term coefficients for one cell mass")
    p.add_argument("--sigma", type=float, required=True, help="cell mass")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help=f"highest degree, at most {MAX_DEGREE} (the "
                        f"c_n_from_extnorm column builds a degree-N tensor)")
    p.set_defaults(func=_cmd_jacobi)

    p = sub.add_parser("laguerre", parents=[shared],
                       help="orthonormal polynomial coefficients")
    p.add_argument("--sigma", type=float, required=True, help="shape parameter")
    p.add_argument("--n", type=int, required=True, metavar="N",
                   help="highest degree")
    p.set_defaults(func=_cmd_laguerre)

    p = sub.add_parser("stransform", parents=[shared],
                       help="evaluate the S-transform of a stored functional")
    p.add_argument("--functional", required=True, metavar="FILE",
                   help="functional JSON file")
    p.add_argument("--theta", required=True, metavar="SPEC",
                   help="test function: JSON list or path to a JSON file")
    p.add_argument("--measure", required=True, metavar="FILE",
                   help="measure JSON file {\"weights\": [...]}")
    p.set_defaults(func=_cmd_stransform)

    mc_names = sorted(MC_SUITES) + ["all"]
    p = sub.add_parser("mc", parents=[shared],
                       help="Monte Carlo suites against closed-form targets")
    p.add_argument("suite_pos", nargs="?", choices=mc_names, metavar="suite",
                   help=f"one of {', '.join(mc_names)} (default all)")
    p.add_argument("--suite", choices=mc_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                   metavar="N")
    p.add_argument("--se-mult", type=float, default=DEFAULT_SE_MULT,
                   metavar="X", help="pass band half-width in SE units")
    p.add_argument("--measure", metavar="FILE")
    p.set_defaults(func=_cmd_mc, parser=p)

    ver_names = sorted(VERIFY_SUITES) + ["all"]
    p = sub.add_parser("verify", parents=[shared],
                       help="deterministic identity suites")
    p.add_argument("suite_pos", nargs="?", choices=ver_names, metavar="suite",
                   help=f"one of {', '.join(ver_names)} (default all)")
    p.add_argument("--suite", choices=ver_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--measure", metavar="FILE")
    p.set_defaults(func=_cmd_verify, parser=p)

    p = sub.add_parser("all", parents=[shared],
                       help="every verify and mc suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=DEFAULT_MC_SAMPLES,
                   metavar="N")
    p.add_argument("--se-mult", type=float, default=DEFAULT_SE_MULT,
                   metavar="X")
    p.add_argument("--measure", metavar="FILE")
    p.set_defaults(func=_cmd_all)

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
