"""Benchmark of gwn: one closed-loop client, one workload per run.

    python3 bench/run.py --workload {cli_all,mc_wide,identities_scale}
                         --seed N --seconds S --trace {0,1}

Run from a checkout: ``gwn`` is imported from ``src/`` next to this
directory.  After setting up (import gwn and one warm-up op, timed in this
interpreter and in two fresh ones), ops run back to back for S seconds,
each sent only after the previous one returned, and every output is
checked.  A calibration kernel timed before each op scales the op
timings to a reference machine speed.  A determinism probe then re-runs
the warm-up op and requires identical output.  With ``--trace 0`` the
last line reports the end-to-end metrics; with ``--trace 1`` every other
op is traced and the last line reports the per-layer metrics (see
spans.py).  Spans and a run
record go to ``.bench_out/`` in the checkout.  See README.md here.
"""

import time

T_START = time.perf_counter()

# Everything below is imported after the set-up clock started, so set-up
# time is measured the same way in this interpreter and in the fresh ones.
import argparse
import collections
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 2
GWN_MODULES = ("cli", "extfock", "fieldops", "funcalc", "gammasample",
               "symtensor", "verify", "wickcalc")
SUITES = ("theorem5", "theorem6", "theorem7", "theorem8", "theorem9",
          "series", "multiplication", "laplace", "gram", "chaos")
MAX_REPORTED_PROBLEMS = 5
# Op timings are reported at a reference machine speed: each is scaled by
# CAL_REF_S / (time of the calibration kernel run just before it).  See
# "Noise on this machine" in README.md for why.
CAL_REF_S = 0.010

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, make_workload, op_seeds


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="op size; tiny is for the smoke test")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_gwn():
    """Import gwn from this checkout's src/, never from elsewhere."""
    init = SRC / "gwn" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no gwn sources at {init.relative_to(ROOT)};"
                         " run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    gwn = importlib.import_module("gwn")
    for name in GWN_MODULES:
        importlib.import_module(f"gwn.{name}")
    if Path(gwn.__file__).resolve().parent != init.parent.resolve():
        raise SystemExit(f"bench: imported gwn from {gwn.__file__}, "
                         f"not from {init.parent}")
    return gwn


def run_op(workload, inp):
    """One op: (output, outcome).  An exception fails the op."""
    try:
        result = workload.run(inp)
    except Exception:  # the op boundary: record and keep the loop going
        return None, Outcome([traceback.format_exc().strip().splitlines()[-1]])
    return result, workload.check(result)


class Calibration:
    """A fixed kernel whose time tracks this machine's current speed: an
    interpreter loop plus a random gather from an 8 MB array.  It uses no
    gwn code, so a change to gwn does not move it."""

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._data = rng.random(1 << 20)
        self._index = rng.integers(0, self._data.size, 300_000,
                                   dtype=np.int32)

    def time(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i
        self._data[self._index].sum()
        return time.perf_counter() - t0


def at_reference_speed(seconds: float, cal_s: float) -> float:
    return seconds * CAL_REF_S / cal_s


def setup_sample_in_child(args) -> float | None:
    """Set-up time of a fresh interpreter running the same warm-up op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--size", args.size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        return None
    try:
        return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    except (ValueError, IndexError, KeyError):
        return None


def tail_percentile(durations):
    """Highest nearest-rank percentile with at least ten ops beyond it,
    but never below the median (with fewer than 21 ops it is the op just
    above the median): (value, percentile, ops beyond)."""
    d = sorted(durations)
    n = len(d)
    rank = min(n, max(n - 10, n // 2 + 1))
    return d[rank - 1], 100.0 * rank / n, n - rank


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_caches() -> dict:
    out = {}
    for key in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            val = subprocess.run(["getconf", key], capture_output=True,
                                 text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            val = ""
        out[key.lower()] = int(val) if val.isdigit() else None
    return out


def provenance(gwn) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    src_hash = hashlib.sha256()
    for f in sorted((SRC / "gwn").glob("*.py")):
        src_hash.update(f.name.encode() + b"\0" + f.read_bytes())
    caches = {name: fn.cache_info().currsize
              for name, fn in vars(gwn.symtensor).items()
              if hasattr(fn, "cache_info")}
    return {
        "git_sha": _git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cpu_caches_bytes": _cpu_caches(),
        "gwn_lru_cache_entries": caches,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    gwn = import_gwn()
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, gwn, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, gwn, workdir) -> int:
    workload = make_workload(args.workload, gwn, args.size, workdir)
    seeds = op_seeds(args.workload, args.seed)
    warm_input = workload.make_input(next(seeds), "warmup")
    warm_result, warm_outcome = run_op(workload, warm_input)
    setup = [time.perf_counter() - T_START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 1 if warm_outcome.failed else 0

    tally = Tally()
    tally.add(warm_outcome)
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            sample = setup_sample_in_child(args)
            tally.add(None if sample is not None else
                      Outcome(["set-up in a fresh interpreter failed"]))
            if sample is not None:
                setup.append(sample)

    tracer = Tracer(gwn_modules()) if args.trace else None
    cal = Calibration()
    ops = []
    deadline = time.perf_counter() + args.seconds
    while True:
        cal_s = cal.time()
        t_iter = time.perf_counter()
        inp = workload.make_input(next(seeds), "op")
        traced = tracer is not None and len(ops) % 2 == 1
        with tracer.op(len(ops)) if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            _, outcome = run_op(workload, inp)
            t1 = time.perf_counter()
        ops.append(OpTiming(t1 - t0, t1 - t_iter, cal_s, traced))
        tally.add(outcome)
        if t1 >= deadline:
            break

    # determinism probe: the warm-up op again, compared byte for byte
    probe_result, probe_outcome = run_op(workload, warm_input)
    if not probe_outcome.failed and probe_result != warm_result:
        probe_outcome = Outcome(["determinism probe: the warm-up op re-run "
                                 "gave different output"])
    tally.add(probe_outcome)

    if args.trace:
        metrics = layer_report(args, gwn, tracer, ops, tally)
    else:
        metrics = end_to_end_report(setup, ops, tally)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "provenance": provenance(gwn), "cal_ref_s": CAL_REF_S,
              "setup_samples_s": setup,
              "ops": [op._asdict() for op in ops],
              "attempted": tally.attempted, "failed": tally.failed,
              "mc_band_misses": sum(tally.band_misses.values()),
              "mc_band_misses_by_case": dict(tally.band_misses),
              "problems": tally.problems, "metrics": metrics}
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    (OUT / f"run-{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                          encoding="utf-8")
    for line in summary_lines(record):
        print(line)
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


class Tally:
    """Attempted and failed ops of one run, and why they failed."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.band_misses = collections.Counter()
        self.problems = []

    def add(self, outcome) -> None:
        self.attempted += 1
        if outcome is None:
            return
        self.band_misses.update(outcome.band_misses)
        if outcome.failed:
            self.failed += 1
            self.problems += outcome.problems


def gwn_modules() -> dict:
    return {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
            if name.startswith("gwn.")}


class OpTiming(NamedTuple):
    op_s: float       # call to return
    iter_s: float     # input generation plus the op
    cal_s: float      # calibration kernel timed just before
    traced: bool


def end_to_end_report(setup, ops, tally) -> dict:
    durations = [at_reference_speed(op.op_s, op.cal_s) for op in ops]
    tail, pct, beyond = tail_percentile(durations)
    busy = sum(at_reference_speed(op.iter_s, op.cal_s) for op in ops)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(ops) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    print(f"# {len(ops)} timed ops; op_tail_s is the p{pct:.1f} "
          f"({beyond} ops beyond it); setup_s is the median of "
          f"{len(setup)} set-ups")
    print(f"# as measured: op_p50_s {statistics.median(op.op_s for op in ops)!r}"
          f" ops_per_s {len(ops) / sum(op.iter_s for op in ops)!r};"
          f" calibration median {statistics.median(op.cal_s for op in ops)!r}"
          f" s against CAL_REF_S {CAL_REF_S}")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def layer_report(args, gwn, tracer, ops, tally) -> dict:
    """Per-layer metrics, in seconds as measured (not scaled)."""
    cli_op = args.workload != "identities_scale"
    untraced = [op.op_s for op in ops if not op.traced]
    traced = [op.op_s for op in ops if op.traced]
    per_op = layer_metrics(tracer.spans, len(traced), cli_op, SUITES)
    p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced) if traced else 0.0
    extra = {
        "symtensor.tables.cached": (gwn.symtensor._tables.cache_info().currsize,
                                    "count"),
        "verify.mc_band_misses": (sum(tally.band_misses.values()), "count"),
        "fail_frac": (tally.failed / tally.attempted, "fraction"),
        "trace.untraced_op_p50_s": (p50, "s"),
        "trace.traced_op_p50_s": (traced_p50, "s"),
        "trace.overhead_frac": (traced_p50 / p50 - 1.0 if p50 else 0.0,
                                "fraction"),
    }
    metrics = {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[-1]]}
               for k, v in per_op.items()}
    metrics.update({k: {"value": v, "unit": u} for k, (v, u) in extra.items()})
    print(f"# traced ops {len(traced)} of {len(ops)}; per-layer "
          "metrics are means per traced op")
    return metrics


LAYER_UNITS = {"calls": "count/op", "self_s": "s/op", "s": "s/op",
               "rows": "count/op", "samples": "count/op", "jumps": "count/op"}


def summary_lines(record) -> list[str]:
    lines = [f"# provenance {json.dumps(record['provenance'])}",
             f"# attempted {record['attempted']} failed {record['failed']} "
             f"fail_frac {record['failed'] / record['attempted']!r} "
             f"mc_band_misses {record['mc_band_misses']} "
             f"{json.dumps(record['mc_band_misses_by_case'])}"]
    lines += [f"# problem: {p}" for p in
              record["problems"][:MAX_REPORTED_PROBLEMS]]
    lines += [f"# {name} {m['value']!r} {m['unit']}"
              for name, m in record["metrics"].items()]
    return lines


if __name__ == "__main__":
    sys.exit(main())
