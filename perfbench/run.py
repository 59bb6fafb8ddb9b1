"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload products --seed 1 --seconds 15 --trace 0

The report gives one metric per line with its unit; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
measured with nothing traced, their timings in reference seconds
(``speed.py``) so that the drifting speed of a shared machine does not
enter into them.  With ``--trace 1`` they are the per-layer
ones, from one traced iteration followed by one untraced iteration that
the tracing overhead is stated against.  ``--workload all`` (the
default) runs every workload in turn, each in its own process.

An op counts as failed when its output differs from the golden output
or it raised.  The run is correct when no output differs and nothing
raised, except that an over-deep ``cli-session`` command may raise
RecursionError, which nesting that deep still provokes in the parsers
and renderers; such an op counts as failed all the same.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import tracing  # noqa: E402
from speed import REFERENCE_S, Speedometer  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402
from workloads import WORKLOADS, Library, LibraryMissing  # noqa: E402

SETUP_PROBES = 9

END_TO_END = (
    ("wall_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

SUITES = ("dimensions", "marginals", "transforms", "series", "identities",
          "examples", "bijections", "morphisms", "monomial", "dendriform")

PER_LAYER = (
    ("scalars.mul.calls", "count"), ("scalars.add.calls", "count"),
    ("scalars.self_s", "s"), ("scalars.parse.self_s", "s"),
    ("baxter_core.lincomb.add.calls", "count"),
    ("baxter_core.lincomb.scale.calls", "count"),
    ("baxter_core.lincomb.terms_copied", "count"),
    ("baxter_core.lincomb.useful_ratio", "ratio"),
    ("baxter_core.lincomb.self_s", "s"),
) + tuple(
    (f"baxter_core.{op}.{m}", u) for op in ("circle", "star")
    for m, u in (("calls", "count"), ("hits", "count"), ("misses", "count"),
                 ("hit_ratio", "ratio"), ("entries", "count"), ("self_s", "s"))
) + (
    ("baxter_core.graft.calls", "count"), ("baxter_core.graft.self_s", "s"),
    ("baxter_core.beta.calls", "count"), ("baxter_core.beta.self_s", "s"),
    ("baxter_core.parse.self_s", "s"),
    ("dendriform.dend_op.calls", "count"), ("dendriform.dend_op.self_s", "s"),
    ("dendriform.star.hits", "count"), ("dendriform.star.misses", "count"),
    ("dendriform.star.hit_ratio", "ratio"), ("dendriform.star.entries", "count"),
    ("dendriform.rb.self_s", "s"),
    ("trees.enumerate.self_s", "s"), ("trees.parse.self_s", "s"),
    ("trees.render.self_s", "s"), ("trees.memo.entries", "count"),
    ("paths.encode.self_s", "s"), ("paths.decode.self_s", "s"),
    ("paths.parse.self_s", "s"), ("paths.memo.entries", "count"),
    ("counting.series.self_s", "s"), ("counting.dim.self_s", "s"),
    ("counting.memo.entries", "count"),
    ("monomial.pi.self_s", "s"), ("monomial.parse.self_s", "s"),
    ("cli.build_parser.self_s", "s"), ("cli.main.self_s", "s"),
    ("verify.suite.self_s", "s"),
) + tuple((f"verify.{s}.s", "s") for s in SUITES) + (
    ("traced.peak_mb", "MB"), ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median time, over several fresh processes, to set the workload up:
    each scaled to the reference speed by timings the process took of the
    reference code after its set-up; and the median raw."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                                workload, str(seed)], cwd=ROOT, check=True,
                               stdout=subprocess.PIPE, text=True)
        report = json.loads(probe.stdout)
        raw.append(report["ready"] - t0)
        scaled.append(raw[-1] * REFERENCE_S / statistics.fmean(report["reference"]))
    return statistics.median(scaled), statistics.median(raw)


def run_seconds() -> int:
    """The run length ``BENCHMARK.json`` sets."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def cold(lib: Library) -> None:
    """Start an iteration from empty memo tables and a collected heap."""
    lib.clear_memos()
    gc.collect()
    lib.assert_memos_empty()


def scale(run, speed: Speedometer) -> None:
    """Give ``run`` its wall and op latencies in reference seconds."""
    run.wall = speed.scaled(run.start, run.start + run.wall)
    run.latencies = [speed.scaled(t0, t0 + dt)
                     for t0, dt in zip(run.starts, run.latencies)]
    run.speed = speed.mean_factor()
    run.starts = None


def measure(work, lib: Library, gold: dict, seconds: float) -> tuple[list, list, float]:
    """Run whole iterations, each timed in reference seconds and each in
    the order the seed gives it, until they have taken ``seconds`` in all.

    Also returns the peak RSS as it stood after the first iteration's ops,
    before rendering outputs for the golden check could raise it."""
    runs, verdicts, spent, peak = [], [], 0.0, None
    while True:
        work.arrange(len(runs))
        cold(lib)
        with Speedometer() as speed:
            run = work.run(speed.clock)
        scale(run, speed)
        peak = peak or peak_rss_mb()
        verdicts.append(work.check(run, gold))
        run.outputs = None
        runs.append(run)
        spent += run.wall
        if spent >= seconds:
            return runs, verdicts, peak


def end_to_end(runs: list, verdicts: list, setup: tuple[float, float],
               peak: float) -> tuple[dict, list[str]]:
    lat = sorted(x for r in runs for x in r.latencies)
    wall = statistics.median(r.wall for r in runs)
    attempted = sum(v.attempted for v in verdicts)
    failed = sum(v.failed for v in verdicts)
    values = {
        "wall_s": wall,
        "ops_per_s": verdicts[0].attempted / wall,
        "op_p50_ms": percentile(lat, 50) * 1e3,
        "op_p99_ms": percentile(lat, 99) * 1e3,
        "setup_s": setup[0],
        "peak_rss_mb": peak,
        "ok_ratio": 1 - failed / attempted,
    }
    notes = [f"iterations {len(runs)}; iteration walls in reference seconds "
             + " ".join(f"{r.wall:.3f}" for r in runs) + ", raw "
             + " ".join(f"{r.raw_wall:.3f}" for r in runs) + " s",
             "machine speed against the reference (reference time / measured): "
             + " ".join(f"{r.speed:.3f}" for r in runs),
             f"setup {setup[0]:.4f} reference s, raw {setup[1]:.4f} s",
             f"op latency samples {len(lat)}; p99 has "
             f"{samples_beyond(len(lat), 99)} beyond it"]
    tail = tail_percentile(len(lat))
    if tail is not None and tail < 99:
        notes.append(f"highest percentile with >= 10 samples beyond it: "
                     f"p{tail:g} = {percentile(lat, tail) * 1e3:.4f} ms")
    notes.append(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6f}")
    return values, notes


def traced(work, lib: Library, gold: dict) -> tuple[dict, list, list[str]]:
    """One traced iteration, then one untraced one to state the overhead."""
    cold(lib)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, lib)
    try:
        run_t = work.run()
    finally:
        patches.restore()
    values = layer_metrics(tracer, lib)
    values["traced.peak_mb"] = peak_rss_mb()
    verdicts = [work.check(run_t, gold)]
    del tracer, run_t.outputs
    cold(lib)
    run_u = work.run()
    verdicts.append(work.check(run_u, gold))
    values["trace.overhead_ratio"] = run_t.wall / run_u.wall
    for suite in SUITES:
        values[f"verify.{suite}.s"] = run_u.suites.get(suite, 0.0)
    notes = [f"traced wall {run_t.wall:.3f} s, untraced wall {run_u.wall:.3f} s",
             "verify.<suite>.s are read from the untraced iteration"]
    return values, verdicts, notes


def layer_metrics(tracer: tracing.Tracer, lib: Library) -> dict:
    spans = tracer.span_summary()
    calls, own = tracer.counted_calls, tracer.counted_self
    out = {name: 0 for name, _ in PER_LAYER}
    for layer, (n, s) in spans.items():
        out[f"{layer}.calls"] = n
        out[f"{layer}.self_s"] = s
    for layer in calls:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = own[layer]
    out["scalars.self_s"] = sum(v for k, v in own.items() if k.startswith("scalars."))
    out["baxter_core.lincomb.self_s"] = sum(
        v for k, v in own.items() if k.startswith("baxter_core.lincomb."))
    copied, merged = tracer.stats["terms_copied"], tracer.stats["terms_merged"]
    out["baxter_core.lincomb.terms_copied"] = copied
    out["baxter_core.lincomb.useful_ratio"] = merged / copied if copied else 0.0
    info = {k: f.cache_info() for k, f in lib.memos.items()}
    for layer, key in (("baxter_core.circle", "baxter_core.circle"),
                       ("baxter_core.star", "baxter_core.star"),
                       ("dendriform.star", "dendriform._star")):
        ci = info[key]
        lookups = ci.hits + ci.misses
        out[f"{layer}.hits"] = ci.hits
        out[f"{layer}.misses"] = ci.misses
        out[f"{layer}.hit_ratio"] = ci.hits / lookups if lookups else 0.0
        out[f"{layer}.entries"] = ci.currsize
    for module in ("trees", "paths", "counting"):
        out[f"{module}.memo.entries"] = sum(
            ci.currsize for k, ci in info.items() if k.startswith(module + "."))
    out["trace.spans"] = len(tracer.start)
    known = dict(PER_LAYER)
    return {k: v for k, v in out.items() if k in known}


def emit(values: dict, units: tuple, verdicts: list, notes: list[str]) -> None:
    for line in notes + [n for v in verdicts for n in v.notes]:
        print(f"# {line}")
    for name, unit in units:
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": all(v.unexpected == 0 for v in verdicts),
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


def run_all(args) -> int:
    """Every workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            return proc.returncode or 1
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("all",) + tuple(WORKLOADS),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        lib = Library(ROOT)
    except LibraryMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    setup = None if args.trace else setup_seconds(args.workload, args.seed)
    lib.assert_memos_empty()
    work = WORKLOADS[args.workload](lib, args.seed)
    gold = golden.load(args.workload)
    if args.trace:
        values, verdicts, notes = traced(work, lib, gold)
        emit(values, PER_LAYER, verdicts, notes)
        return 0
    runs, verdicts, peak = measure(work, lib, gold, args.seconds)
    values, notes = end_to_end(runs, verdicts, setup, peak)
    emit(values, END_TO_END, verdicts, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
