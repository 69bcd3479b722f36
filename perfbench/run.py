"""Host-time benchmark of the carbon-aware RJMS simulator.

Run from the root of a checkout (the simulator is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload carbon-gate --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` the per-layer ones (see ``measure.py``).  The last line of
standard output is the JSON result.  Two maintenance modes use the same
workloads:

    python3 perfbench/run.py --steadiness [--seed S] [--workload W ...]
    python3 perfbench/run.py --record-golden [--workload W ...]

``--steadiness`` runs the measuring command ``RUNS`` times in each of
``SETS`` sets, each run with its own seed, and prints per set each
end-to-end metric's median and quartiles next to its bound.  ``--record-golden`` re-records
the golden outputs of every pool entry, for a change that is meant to
alter simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: steadiness mode: sets of runs of the same code, runs per set
SETS = 2
RUNS = 10


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(wl, seed: int, seconds: float, trace: bool) -> None:
    import layers
    import measure

    metrics, tally, note, summary = measure.measure(wl, seed, seconds, trace)
    declared = _benchmark_spec()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        sys.exit("perfbench: measured metrics differ from BENCHMARK.json: "
                 f"{sorted(set(units) ^ set(metrics))}")
    if summary is not None:
        print(f"{wl.name}: span self time of the last traced pass")
        print(layers.render_summary(summary))
    print(f"{wl.name} seed={seed}: {note}; {tally.attempted} jobs "
          f"attempted, {tally.failed} failed, {tally.drifted} "
          "simulations off their golden outputs")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def _spread(values) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def steadiness(names, first_seed: int) -> int:
    """Sets of runs of the measuring command; per set, each end-to-end
    metric's median and quartiles next to its bound."""
    spec = _benchmark_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    for w in names:
        per_set = []
        for s in range(SETS):
            values = {name: [] for name in bounds}
            for k in range(RUNS):
                seed = first_seed + s * RUNS + k
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w, "--seed", str(seed), "--seconds",
                       str(spec["run_seconds"]), "--trace", "0"]
                t0 = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=600)
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr)
                    sys.exit(f"perfbench: {w} seed {seed} exited "
                             f"{proc.returncode}")
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    bad += 1
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{w} set {s + 1} seed {seed} "
                      f"({time.perf_counter() - t0:.1f} s, "
                      f"{result['failed']} failed): " +
                      " ".join(f"{n}={values[n][-1]:.6g}" for n in bounds),
                      flush=True)
            per_set.append(values)
        print(f"\n{w}: {RUNS} runs per set; spread = (q3 - q1) / median; "
              "drift = how much worse the last set's median is")
        print(f"{'metric':<12} {'bound':>6} " + " ".join(
            f"{'median' + str(s + 1):>12} {'q1':>10} {'q3':>10} "
            f"{'spread':>7}" for s in range(SETS)) + f" {'drift':>7}")
        for name, m in bounds.items():
            stats = [_spread(values[name]) for values in per_set]
            sign = 1.0 if m["better"] == "lower" else -1.0
            drift = sign * (stats[-1][0] - stats[0][0]) / stats[0][0]
            worst = max(st[3] for st in stats)
            verdict = "ok"
            if worst > m["bound"]:
                verdict, bad = "SPREAD>BOUND", bad + 1
            elif drift > m["bound"]:
                verdict, bad = "DRIFT>BOUND", bad + 1
            elif worst > m["bound"] / 3:
                verdict = "spread>bound/3"
            print(f"{name:<12} {m['bound']:>6.3f} " + " ".join(
                f"{med:>12.6g} {q1:>10.6g} {q3:>10.6g} {sp:>7.3f}"
                for med, q1, q3, sp in stats) + f" {drift:>7.3f} {verdict}")
        print(flush=True)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no simulator source under {SRC}; run from "
                 "the root of a full checkout")
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {list(WORKLOADS)}")
    if args.steadiness:
        return steadiness(names, args.seed)
    if args.record_golden:
        import measure
        measure.record_golden([WORKLOADS[n] for n in names])
        return 0
    if len(names) != 1:
        ap.error("a measuring run takes exactly one --workload")
    run(WORKLOADS[names[0]], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
