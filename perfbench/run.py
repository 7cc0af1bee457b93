"""fcrbid benchmark: seeded workloads, a correctness gate, metrics by name.

    python3 perfbench/run.py --workload all                 # solve, verify, cli
    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify --trace 1    # per-layer metrics

Run it from the root of a checkout; it benchmarks the package under
`src/`.  With `--trace 0` it prints every end-to-end metric of
BENCHMARK.json, with `--trace 1` every per-layer metric and the tracing
overhead.  The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("solve", "verify", "cli")
SETUP_REPS = 9
SCALAR_REPS = 11      # scalar kernel calls after each set-up


def parse_args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workloads, name, seed, workdir):
    """Median over SETUP_REPS of: a fresh interpreter importing the package,
    then generating and writing the workload's inputs.  Like the operation
    times, both parts are scaled to the reference speed: the import by the
    fresh-interpreter kernel, timed right before and after it, and the
    generation by the scalar kernel, timed right after it.  Returns (setup_s, unscaled setup_s, workload)."""
    env = workloads.child_env(ROOT)
    scaled, unscaled = [], []
    for _ in range(SETUP_REPS):
        shutil.rmtree(workdir, ignore_errors=True)
        kernel = lambda: workloads.time_ms(lambda: workloads.import_kernel(env, ROOT))
        before = kernel()
        import_ms = workloads.time_ms(lambda: subprocess.run(
            [sys.executable, "-c", "import fcrbid"], env=env, cwd=ROOT, check=True,
            timeout=60))
        import_kernel = (before + kernel()) / 2
        t0 = time.perf_counter_ns()
        wl = workloads.build(name, seed, workdir, ROOT)
        build_ms = (time.perf_counter_ns() - t0) / 1e6
        scalar_kernel = statistics.median(
            workloads.time_ms(workloads.scalar_kernel) for _ in range(SCALAR_REPS))
        scaled.append(import_ms * workloads.IMPORT_KERNEL_MS / import_kernel
                      + build_ms * workloads.SCALAR_KERNEL_MS / scalar_kernel)
        unscaled.append(import_ms + build_ms)
    return statistics.median(scaled) / 1e3, statistics.median(unscaled) / 1e3, wl


def gate_summary(workloads, wl, results) -> dict:
    verdicts = [results[0].verdicts[i] for i in range(len(wl.items))]
    failed = [v.defect for v in verdicts if v.status == "failed"]
    known = [d for d in failed if d in workloads.KNOWN_DEFECTS]
    return {
        "inputs": len(verdicts),
        "ok": sum(v.status == "ok" for v in verdicts),
        "refused": sum(v.status == "refused" for v in verdicts),
        "failed": len(failed),
        "by_defect": {d: known.count(d) for d in sorted(set(known))},
        "unexpected": [d for d in failed if d not in workloads.KNOWN_DEFECTS],
        "repeat_mismatches": sum(r.mismatches for r in results),
    }


def run_one(workloads, layers, name, seed, seconds, trace, base) -> tuple[dict, dict]:
    """One workload: (metrics by name, gate summary and operation counts)."""
    setup_s, setup_unscaled, wl = setup(workloads, name, seed, base / name)
    print(f"perfbench workload={name} seed={seed} seconds={seconds:g} trace={trace}")
    print(f"setup_s {setup_s:.4g} s at the reference speed, {setup_unscaled:.4g} s unscaled")
    if trace:
        built = {other: wl if other == name else
                 workloads.build(other, seed, base / f"layers-{other}", ROOT)
                 for other in WORKLOADS}
        metrics = layers.layer_pass(seed, built, ROOT)
        plain = workloads.run_loop(wl, seconds / 2)
        tracer = layers.install()
        try:
            traced = workloads.run_loop(wl, seconds / 2)
        finally:
            tracer.close()
        p50 = workloads.end_to_end(plain)[0]["op_ms_p50"]
        overhead = workloads.end_to_end(traced)[0]["op_ms_p50"] - p50
        print(f"tracing overhead: {overhead:+.4g} ms on the op_ms_p50 of {p50:.4g} ms")
        results = [plain, traced]
    else:
        res = workloads.run_loop(wl, seconds)
        e2e, tail_note = workloads.end_to_end(res)
        metrics = {"setup_s": setup_s, **e2e}
        print(tail_note)
        results = [res]
    gate = gate_summary(workloads, wl, results)
    print("gate " + json.dumps(gate))
    # attempted and failed count the distinct inputs the gate judged, not the
    # timed repeats, so they depend on the seed alone and not on machine speed
    attempted, failed = gate["inputs"], gate["failed"]
    timed = sum(len(r.samples) for r in results)
    print(f"fail_frac = {failed / attempted:.4f} ({failed} failed of {attempted} inputs; "
          f"{timed} timed operations)")
    return metrics, {"gate": gate, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    if not (ROOT / "src" / "fcrbid" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'fcrbid'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, spec)
    sys.path.insert(0, str(ROOT / "src"))
    # the "mad exceeds the activation ratio" warning would flood stderr
    warnings.simplefilter("ignore")
    import layers
    import workloads

    specs = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    base = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out, correct, attempted, failed = {}, True, 0, 0
    try:
        for name in names:
            metrics, summary = run_one(workloads, layers, name, args.seed, args.seconds,
                                       args.trace, base)
            missing = [m["name"] for m in specs if m["name"] not in metrics]
            if missing:
                print(f"error: metrics not measured: {missing}", file=sys.stderr)
                return 1
            prefix = f"{name}." if len(names) > 1 else ""
            for m in specs:
                value = float(metrics[m["name"]])
                print(f"{prefix}{m['name']} = {value:.6g} {m['unit']}")
                out[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            gate = summary["gate"]
            correct = correct and not gate["unexpected"] and not gate["repeat_mismatches"]
            attempted += summary["attempted"]
            failed += summary["failed"]
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if base.parent.is_dir() and not any(base.parent.iterdir()):
            base.parent.rmdir()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
