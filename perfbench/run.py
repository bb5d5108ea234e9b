"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload we_batch --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run alternates whole units of work untraced and with span
recorders installed (see ``tracing.py``), and the last line carries the
per-layer metrics of the traced units.  The line before it is a ``detail`` record: input
provenance, the exact meters and any failed check.  A failed correctness
check prints ``"correct": false`` and exits with status 1.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from multiprocessing import resource_tracker  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "rel_error": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics that are not a layer's calls, self time or counts.
RUN_UNITS = {
    "import.repro.s": "s",
    "osn.accounting.queries_per_sample": "queries",
    "crawl.clock.sim_s": "sim_s",
    "trace.ops": "count",
    "trace.op_s": "s",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "trace.coverage_inner": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import ``repro`` from the checkout; return seconds since start."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source in {src}; run from a checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro  # noqa: F401
    import workloads  # noqa: F401

    return time.perf_counter() - PROCESS_START


def per_layer_units():
    """Every per-layer metric name with its unit, in a stable order."""
    import tracing

    units = {}
    for name in tracing.layer_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for key, unit in tracing.LAYER_COUNTS.get(name, {}).items():
            units[f"{name}.{key}"] = unit
    return {**units, **tracing.DERIVED_UNITS, **RUN_UNITS}


def measure_traced(workload, seed, seconds, import_s, workroot):
    """Alternate whole units untraced and traced; per-layer metrics of the
    traced ones.  Alternating keeps a drift of the host's speed during the
    run out of the overhead ratio."""
    import tracing
    import workloads

    scale = dataclasses.replace(workloads.FULL, setup_repeats=1)
    tracer = tracing.Tracer()

    def unit(traced):
        if not traced:
            return workloads.run_phase(workload, scale, seed, 0, 1, workroot=workroot)
        tracer.install()
        try:
            return workloads.run_phase(
                workload, scale, seed, 0, 1, tracer=tracer, workroot=workroot
            )
        finally:
            tracer.uninstall()

    phases = {False: [], True: []}
    began = time.perf_counter()
    while not phases[True] or time.perf_counter() - began < seconds:
        # Swap the order every pair, so neither side always runs first.
        order = (False, True) if len(phases[True]) % 2 == 0 else (True, False)
        for traced in order:
            phases[traced].append(unit(traced))
    plain, traced = workloads.merge(phases[False]), workloads.merge(phases[True])
    same = plain.exact == traced.exact and plain.provenance == traced.provenance
    traced.check(same, "the traced run's inputs or exact meters differ")
    traced.check(tracer.installed == 0, "a wrapper was left installed")
    op_s = sum(traced.op_s)
    coverage, inner = tracer.coverage(op_s)
    overhead = statistics.median(traced.op_s) / statistics.median(plain.op_s)
    metrics = tracer.report()
    metrics.update(
        {
            "import.repro.s": import_s,
            "osn.accounting.queries_per_sample": traced.exact.get(
                "queries_per_sample", 0.0
            ),
            "crawl.clock.sim_s": traced.exact.get("sim_s", 0.0),
            "trace.ops": len(traced.op_s),
            "trace.op_s": op_s,
            "trace.overhead": overhead,
            "trace.coverage": coverage,
            "trace.coverage_inner": inner,
        }
    )
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.errors = plain.errors + traced.errors
    return traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        valid = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"error: unknown workload {args.workload!r}; valid: {valid}")
    workroot = ROOT / ".perfbench_work" / str(os.getpid())
    shm_before = workloads.shm_segments()
    try:
        if args.trace:
            phase, metrics = measure_traced(
                args.workload, args.seed, args.seconds, import_s, workroot
            )
            units = per_layer_units()
        else:
            scale = workloads.FULL
            phase = workloads.run_phase(
                args.workload,
                scale,
                args.seed,
                args.seconds,
                scale.min_ops,
                workroot=workroot,
            )
            metrics = workloads.summarize(phase, import_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        try:
            workroot.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made
    leaked = sorted(workloads.shm_segments() - shm_before)
    phase.check(not leaked, f"shared-memory segments left behind: {leaked}")
    # Shared memory makes the standard library start a resource-tracker
    # process; stop it and wait for it, so the run leaves no process behind.
    resource_tracker._resource_tracker._stop()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "provenance": phase.provenance,
        "exact": phase.exact,
        "ops": len(phase.op_s),
        "units": phase.units,
        "notes": phase.notes,
        "errors": phase.errors,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not phase.errors,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
