"""The three benchmark workloads: how each op's input is drawn, how the op
runs, and how its output is checked.

A workload turns one op seed into an input, runs that input as one op and
returns the op's output text, then checks the text.  Inputs are built
before the op is timed; the op itself is a single call into ``gwn``.
Every seed, measure file and kernel comes from the workload seed, so the
same seed gives the same ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes of one op.  "full" is what the benchmark measures; "tiny" keeps
# every code path of the op but runs in well under a second, for the
# smoke test.
SIZES = {
    "full": {"cli_samples": None, "mc_samples": 20000, "mc_atoms": 8,
             "roundtrip": (3, 6), "ext_inner": (2, 8), "jacobi": (3, 6),
             "wick_rank_one": (16, 7)},
    "tiny": {"cli_samples": 2000, "mc_samples": 2000, "mc_atoms": 8,
             "roundtrip": (3, 3), "ext_inner": (2, 4), "jacobi": (3, 3),
             "wick_rank_one": (4, 4)},
}

# Tolerances of the identities_scale checks.  The round trip goes through
# degree-6 alternating sums whose rounding reaches ~1e-9 of the input
# scale, the same budget the `series` verify suite gives degree 6; the
# other three identities hold to ~1e-13.
ROUNDTRIP_TOL = 1e-8
IDENTITY_TOL = 1e-10

# mc_wide measures: total mass and smallest atom weight
MC_TOTAL_MASS = 10.0
MC_MIN_WEIGHT = 0.5


def op_seeds(workload: str, seed: int):
    """Endless stream of distinct op seeds drawn from the workload seed."""
    rng = random.Random(f"gwn-bench:{workload}:{seed}")
    seen = set()
    while True:
        s = rng.randrange(2 ** 32)
        if s not in seen:
            seen.add(s)
            yield s


@dataclass
class Outcome:
    """Checked result of one op."""

    problems: list = field(default_factory=list)     # why the op failed
    band_misses: list = field(default_factory=list)  # MC cases outside their band

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def _reject_constant(token: str):
    raise ValueError(f"non-RFC 8259 JSON constant {token}")


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


class CliWorkload:
    """One op is ``gwn.cli.main(argv)`` in process, stdout captured."""

    def __init__(self, gwn, name: str, size: dict, workdir: Path):
        self.gwn = gwn
        self.name = name
        self.size = size
        self.workdir = workdir

    def make_input(self, op_seed: int, tag: str) -> list[str]:
        s = str(op_seed)
        if self.name == "cli_all":
            argv = ["all", "--seed", s]
            if self.size["cli_samples"] is not None:
                argv += ["--samples", str(self.size["cli_samples"])]
            return argv
        # mc_wide: a fresh wide measure per op, written where the CLI reads
        # it.  The compound-Poisson work grows with the total mass, so the
        # total is fixed and only its split over the atoms is random; each
        # atom keeps at least MC_MIN_WEIGHT.
        rng = random.Random(op_seed)
        m = self.size["mc_atoms"]
        split = [rng.expovariate(1.0) for _ in range(m)]
        scale = (MC_TOTAL_MASS - m * MC_MIN_WEIGHT) / sum(split)
        weights = [MC_MIN_WEIGHT + scale * x for x in split]
        path = self.workdir / f"measure-{tag}.json"
        path.write_text(json.dumps({"weights": weights}) + "\n",
                        encoding="utf-8")
        return ["mc", "all", "--measure", str(path),
                "--samples", str(self.size["mc_samples"]), "--seed", s]

    def run(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.gwn.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def check(self, result) -> Outcome:
        rc, text, err = result
        res = Outcome()
        if rc not in (0, 1):
            res.problems.append(f"exit {rc}: {err.strip()[:200]}")
            return res
        try:
            payload = strict_json(text)
        except ValueError as exc:
            res.problems.append(f"output is not strict JSON: {exc}")
            return res
        mc_suites = self.gwn.verify.MC_SUITES
        for suite in payload.get("suites", []):
            is_mc = suite["suite"] in mc_suites
            for case in suite["cases"]:
                label = f"{suite['suite']}.{case['name']}"
                if is_mc:
                    nums = [case.get(k) for k in
                            ("value", "target", "deviation", "se")]
                    if not all(_finite(x) for x in nums):
                        res.problems.append(f"{label}: non-finite MC value")
                    elif not case["pass"]:
                        res.band_misses.append(label)
                elif not case["pass"]:
                    res.problems.append(
                        f"{label}: deviation {case['deviation']!r} above "
                        f"tolerance {case['tolerance']!r}")
        if (rc == 0) != bool(payload.get("pass")):
            res.problems.append(f"exit {rc} disagrees with pass="
                                f"{payload.get('pass')}")
        if not payload.get("suites"):
            res.problems.append("report holds no suites")
        return res


def _scaled_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _rising(w: float, k: int) -> float:
    return math.prod(w + j for j in range(k))


class IdentitiesWorkload:
    """One op is four library-level identity checks on fresh inputs:

    (a) Wick -> monomial -> Wick round trip against the input kernels;
    (b) the loop-partition ``ext_inner_n`` against the per-atom
        rising-factorial closed form, computed here;
    (c) ``jacobi_action_check`` on a random indicator;
    (d) ``wick_kernels`` paired with ``rank_one(xi, n)`` through
        ``fock_inner_n`` against the scalar ``wick_pair_rank_one``.
    """

    def __init__(self, gwn, size: dict):
        self.gwn = gwn
        self.size = size

    def make_input(self, op_seed: int, tag: str) -> dict:
        import numpy as np
        from gwn.measure import AtomicMeasure
        from gwn.symtensor import FockVector, SymTensor
        from gwn.wickcalc import Basis, OmegaSample, PolyFunctional

        rng = np.random.default_rng(op_seed)

        def measure(m):
            return AtomicMeasure(rng.uniform(0.5, 2.0, m))

        def tensor(m, n):
            return SymTensor(m, n, rng.uniform(-1.0, 1.0, math.comb(m + n - 1, n)))

        m, N = self.size["roundtrip"]
        wick = PolyFunctional(Basis.GAMMA_WICK,
                              FockVector([tensor(m, n) for n in range(N + 1)]))
        inp = {"roundtrip": (wick, measure(m))}
        m, n = self.size["ext_inner"]
        inp["ext_inner"] = (measure(m), tensor(m, n), tensor(m, n))
        m, N = self.size["jacobi"]
        chi = np.zeros(m)
        chi[rng.choice(m, int(rng.integers(1, m + 1)), replace=False)] = 1.0
        inp["jacobi"] = (measure(m), chi, N)
        m, N = self.size["wick_rank_one"]
        inp["wick_rank_one"] = (measure(m), OmegaSample(rng.uniform(0.05, 2.5, m)),
                                rng.uniform(-1.0, 1.0, m), N)
        return inp

    def run(self, inp: dict) -> str:
        # functions are looked up on the modules at each call, so a traced
        # op sees the wrappers spans.py puts there
        g = self.gwn
        out = {}
        wick, mu = inp["roundtrip"]
        mono = g.wickcalc.wick_to_monomial(wick, mu)
        back = g.wickcalc.monomial_to_wick(mono, mu)
        dev = max(float(abs(back.kernels.get(n).values
                            - wick.kernels.get(n).values).max())
                  for n in range(wick.degree + 1))
        scale = max(1.0, wick.kernels.max_abs())
        out["roundtrip"] = {"deviation": dev / scale, "tolerance": ROUNDTRIP_TOL}

        mu, f, h = inp["ext_inner"]
        value = float(g.extfock.ext_inner_n(mu, f, h))
        closed = self._ext_inner_closed_form(mu.weights.tolist(), f, h)
        out["ext_inner"] = {"value": value, "closed_form": closed,
                            "deviation": _scaled_gap(value, closed),
                            "tolerance": IDENTITY_TOL}

        mu, chi, N = inp["jacobi"]
        rep = g.fieldops.jacobi_action_check(mu, chi, N)
        out["jacobi"] = {"action_deviation": float(rep.max_action_dev),
                         "norm_deviation": float(rep.max_norm_dev),
                         "tolerance": IDENTITY_TOL}

        mu, omega, xi, N = inp["wick_rank_one"]
        kernels = g.wickcalc.wick_kernels(omega, mu, N)
        fock = [float(g.extfock.fock_inner_n(mu, kernels[n],
                                            g.symtensor.rank_one(xi, n)))
                for n in range(N + 1)]
        scalar = [float(x)
                  for x in g.wickcalc.wick_pair_rank_one(omega, xi, mu, N)]
        out["wick_rank_one"] = {
            "fock": fock, "scalar": scalar,
            "deviation": max(_scaled_gap(a, b) for a, b in zip(fock, scalar)),
            "tolerance": IDENTITY_TOL}
        return json.dumps(out, allow_nan=False, sort_keys=True) + "\n"

    @staticmethod
    def _ext_inner_closed_form(weights, f, g) -> float:
        """sum_k perm_count(k) prod_i rising(w_i, k_i) f[k] g[k] over the
        occupation counts k of each stored multi-index."""
        n = f.degree
        total = 0.0
        for rep, fv, gv in zip(f.reps.tolist(), f.values.tolist(),
                               g.values.tolist()):
            counts = [rep.count(i) for i in range(len(weights))]
            perms = math.factorial(n) // math.prod(math.factorial(c)
                                                   for c in counts)
            rising = math.prod(_rising(w, c) for w, c in zip(weights, counts))
            total += perms * rising * fv * gv
        return total

    def check(self, text: str) -> Outcome:
        res = Outcome()
        try:
            out = strict_json(text)
        except ValueError as exc:
            res.problems.append(f"output is not strict JSON: {exc}")
            return res
        for part, d in out.items():
            tol = d["tolerance"]
            for key, dev in d.items():
                if key.endswith("deviation") and not dev <= tol:
                    res.problems.append(f"{part}.{key} {dev!r} above {tol!r}")
        return res


WORKLOADS = ("cli_all", "mc_wide", "identities_scale")


def make_workload(name: str, gwn, size: str, workdir: Path):
    if name == "identities_scale":
        return IdentitiesWorkload(gwn, SIZES[size])
    return CliWorkload(gwn, name, SIZES[size], workdir)
