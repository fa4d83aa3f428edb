"""parcut benchmark: time solve and verify on one workload, then check every answer.

    python3 bench/run.py --workload large_polygon --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and imports parcut from its `src/`.
Prints, as its last line, one JSON object: `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics with `--trace 0`, the
per-layer ones with `--trace 1` (spans then go to bench/traces/).
See bench/README.md for the workloads, metrics and references.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # set before numpy loads: one process, one thread

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import pace
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3  # setup_s is the median of this many set-ups
SETUP_UNITS = 20  # pace units timed after the import and after each set-up
MIN_PASSES = 3  # timed passes per run, even past --seconds
END_TO_END = {"solve_ms": "ms", "verify_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}


def import_parcut():
    """parcut from this checkout's src/, never from another copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import parcut

    where = Path(parcut.__file__).resolve().parent
    if where != src / "parcut":
        raise SystemExit(f"imported parcut from {where}, not from {src}")
    return parcut


def timed(kind, fn, *args):
    """Untraced twin of `spans.Tracer.call`: (result, start, end)."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, t0, time.perf_counter()


def one_pass(parcut, cases, record, units, call=timed):
    """Solve and verify every case once, with `units` pace units before each
    call; returns the per-solve and per-verify mean wall times and the mean
    time of one pace unit, all in ms, and the number of failed operations."""
    solve_s = verify_s = pace_s = 0.0
    paced = failed = 0
    for k, case in enumerate(cases):
        pace_s += pace.timed_units(units)
        paced += units
        try:
            sol, t0, t1 = call("solve", parcut.solve, case.vertices, case.n)
        except Exception as exc:  # counted, and its verify fails with it
            print(f"solve failed on {case.label}: {exc!r}", file=sys.stderr)
            failed += 2
            continue
        solve_s += t1 - t0
        pace_s += pace.timed_units(units)
        paced += units
        try:
            rep, t0, t1 = call("verify", parcut.verify_solution, case.P, case.n, sol.rho, sol.direction, sol.cuts)
        except Exception as exc:
            print(f"verify failed on {case.label}: {exc!r}", file=sys.stderr)
            failed += 1
            rep = None
        else:
            verify_s += t1 - t0
        record[k].add(answer_key(sol, rep))
    return solve_s * 1e3 / len(cases), verify_s * 1e3 / len(cases), pace_s * 1e3 / paced, failed


def answer_key(sol, rep):
    """Everything checked about one solve and its verify, hashable."""
    cuts = tuple((c.normal, c.offset) for c in sol.cuts)
    radii = None if rep is None else tuple(rep.piece_inradii)
    return sol.rho, sol.direction, cuts, radii


def check(cases, record) -> bool:
    """Check each distinct answer against references made without parcut."""
    import reference  # scipy loads only now, after peak RSS is read

    ok = True
    for case, answers in zip(cases, record):
        P = reference.Polygon(case.vertices)
        for rho, direction, cuts, radii in answers:
            try:
                ref = reference.check_solution(P, case.n, rho, direction, cuts, case.regular_m)
                if radii is not None:
                    reference.check_verify_report(ref, rho, radii)
            except reference.CheckFailed as exc:
                print(f"wrong answer on {case.label}: {exc}", file=sys.stderr)
                ok = False
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("large_polygon", "many_pieces", "small_batch"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_import = time.perf_counter()
    parcut = import_parcut()
    import_s = time.perf_counter() - t_import
    import workloads

    pace.unit()
    import_s = pace.at_ref(import_s, pace.unit_ms(SETUP_UNITS))
    units = workloads.PACE_UNITS[args.workload]
    warm = workloads.regular(64)
    setups = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cases = workloads.build(args.workload, args.seed)
        for case in cases:  # verify takes the polygon as `parcut verify` loads it
            case.P = parcut.canonicalize(case.vertices)
        sol = parcut.solve(warm, 3)
        parcut.verify_solution(parcut.canonicalize(warm), 3, sol.rho, sol.direction, sol.cuts)
        setups.append(pace.at_ref(time.perf_counter() - t0, pace.unit_ms(SETUP_UNITS)))

    tracer = spans.Tracer(parcut) if args.trace else None
    record = [set() for _ in cases]
    plain, traced, layers = [], [], []
    failed = 0
    t_start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None and len(plain) > len(traced):  # alternate with untraced
            first = len(tracer.spans)
            with tracer.installed():
                s_ms, v_ms, u_ms, f = one_pass(parcut, cases, record, units, tracer.call)
            layers.append(tracer.pass_metrics(first, len(cases)))
            traced.append((s_ms, v_ms, u_ms))
        else:
            s_ms, v_ms, u_ms, f = one_pass(parcut, cases, record, units)
            plain.append((s_ms, v_ms, u_ms))
        failed += f
        passes = len(plain) + len(traced)
        if time.perf_counter() - t_start >= args.seconds and passes >= (2 if tracer else MIN_PASSES):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_check = time.perf_counter()
    correct = check(cases, record)
    wall = [statistics.median(p[i] for p in plain) for i in range(3)]
    print(
        f"{args.workload}: {len(plain)} + {len(traced)} traced passes in "
        f"{t_check - t_start:.1f} s, checks {time.perf_counter() - t_check:.1f} s; "
        f"unscaled medians: solve {wall[0]:.4g} ms, verify {wall[1]:.4g} ms, pace unit {wall[2]:.4g} ms",
        file=sys.stderr,
    )
    attempted = 2 * len(cases) * (len(plain) + len(traced))
    if tracer is None:
        values = {
            "solve_ms": statistics.median(pace.at_ref(s, u) for s, _, u in plain),
            "verify_ms": statistics.median(pace.at_ref(v, u) for _, v, u in plain),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": import_s + statistics.median(setups),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        out = HERE / "traces"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-seed{args.seed}.csv")
        values = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
        values["trace.overhead_ms"] = statistics.median(
            pace.at_ref(s, u) for s, _, u in traced
        ) - statistics.median(pace.at_ref(s, u) for s, _, u in plain)
        metrics = {k: {"value": values[k], "unit": u} for k, u in spans.METRICS}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
