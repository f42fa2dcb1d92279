"""Reach table: the largest degree each layer finishes within a budget.

    python3 bench/reach.py

For each (layer, atom count m) the degree N steps up from 1 until one
step takes longer than BUDGET_S or hits a size cap.  Every step runs in
a fresh interpreter, which times the call twice on the same inputs: the
first call pays for the lazily built tables ("cold"), the second does not
("warm").  The table, with the cap errors met on the way, is printed and
written to ``.bench_out/reach.json``.  It is informational: nothing is
gated on it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
BUDGET_S = 1.0
STEP_TIMEOUT_S = 120
EVAL_ROWS = 100_000
# evaluate_batch gathers a (rows, R, N) float array per degree; steps that
# would need more than this are skipped to keep the run small
EVAL_GATHER_LIMIT_BYTES = 1 << 29

# (layer, m, which timings count)
CASES = (
    ("ext_inner_n", 2, ("warm",)),
    ("ext_inner_n", 3, ("warm",)),
    ("wick_to_monomial", 3, ("warm",)),
    ("wick_kernels", 16, ("warm", "cold")),
    ("evaluate_batch", 3, ("warm",)),
)


def _inputs(layer: str, m: int, N: int):
    import numpy as np
    from gwn.measure import AtomicMeasure
    from gwn.symtensor import FockVector, SymTensor
    from gwn.wickcalc import Basis, OmegaSample, PolyFunctional

    rng = np.random.default_rng([m, N])
    mu = AtomicMeasure(rng.uniform(0.5, 2.0, m))

    def tensor(n):
        return SymTensor(m, n, rng.uniform(-1.0, 1.0, math.comb(m + n - 1, n)))

    if layer == "ext_inner_n":
        return (mu, tensor(N), tensor(N))
    if layer == "wick_kernels":
        return (OmegaSample(rng.uniform(0.05, 2.5, m)), mu, N)
    basis = Basis.GAMMA_WICK if layer == "wick_to_monomial" else Basis.MONOMIAL
    p = PolyFunctional(basis, FockVector([tensor(n) for n in range(N + 1)]))
    if layer == "wick_to_monomial":
        return (p, mu)
    return (p, rng.gamma(mu.weights, size=(EVAL_ROWS, m)), mu)


def step(layer: str, m: int, N: int) -> dict:
    """Time one call of layer at (m, N), cold then warm."""
    sys.path.insert(0, str(ROOT / "src"))
    import gwn.extfock
    import gwn.wickcalc
    if layer == "evaluate_batch":
        gather = EVAL_ROWS * math.comb(m + N - 1, N) * N * 8
        if gather > EVAL_GATHER_LIMIT_BYTES:
            return {"skipped": f"gather of {gather / 2**30:.1f} GiB"}
    fn = getattr(gwn.extfock, layer, None) or getattr(gwn.wickcalc, layer)
    try:
        args = _inputs(layer, m, N)
        times = []
        for _ in range(2):
            t0 = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - t0)
    except ValueError as exc:  # gwn's size and domain caps
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"cold_s": times[0], "warm_s": times[1]}


def _run_step(layer: str, m: int, N: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--step",
           layer, str(m), str(N)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timeout after {STEP_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cli_cap_probe() -> dict:
    """``gwn verify all`` on a 16-atom measure: the CLI's own size caps."""
    sys.path.insert(0, str(ROOT / "src"))
    import gwn.cli
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "measure16.json"
        path.write_text(json.dumps({"weights": [1.0] * 16}), encoding="utf-8")
        argv = ["verify", "all", "--measure", str(path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = gwn.cli.main(argv)
    return {"argv": "gwn verify all --measure <16 atoms>", "exit": rc,
            "stderr": err.getvalue().strip()}


def reach(budget: float) -> dict:
    rows = []
    for layer, m, kinds in CASES:
        steps, best, stop = [], dict.fromkeys(kinds), {}
        for N in range(1, 64):
            res = _run_step(layer, m, N)
            steps.append({"N": N, **res})
            print(f"{layer} m={m} N={N} {res}", flush=True)
            for k in kinds:
                if k in stop:
                    continue
                if "cold_s" not in res:
                    stop[k] = res.get("error") or f"skipped: {res['skipped']}"
                elif res[f"{k}_s"] <= budget:
                    best[k] = N
                else:
                    stop[k] = f"N={N} takes {res[f'{k}_s']:.2f} s"
            if len(stop) == len(kinds):
                break
        rows += [{"layer": layer, "m": m, "timing": k, "largest_N": best[k],
                  "stopped": stop[k], "steps": steps} for k in kinds]
    return {"budget_s": budget, "rows": rows, "cli_cap": cli_cap_probe()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--step", nargs=3, metavar=("LAYER", "M", "N"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.step:
        layer, m, N = args.step
        print(json.dumps(step(layer, int(m), int(N))))
        return 0
    OUT.mkdir(exist_ok=True)
    table = reach(BUDGET_S)
    for row in table["rows"]:
        print(f"{row['layer']:18} m={row['m']:<3} {row['timing']:5} "
              f"largest N {row['largest_N']}  (stopped: {row['stopped']})")
    print(f"cli cap: {table['cli_cap']}")
    (OUT / "reach.json").write_text(json.dumps(table, indent=1) + "\n",
                                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
