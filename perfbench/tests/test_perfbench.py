"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import re
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402
from workloads import (  # noqa: E402
    CliSession, CommandPool, Library, Products, Run, VerifyDesk, _op_error, apportion, digest)


# -- the percentile rule ------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (100000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (66, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (1, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_kernel_percentile():
    values = list(range(1, 1002))
    assert percentile(values, 50) == pytest.approx(501)   # symmetric weights
    assert percentile(values, 90) == pytest.approx(901, abs=0.5)
    assert 99 < percentile(list(range(1, 101)), 99) < 100
    assert percentile([7.0], 99) == 7.0
    assert percentile([3.0] * 40, 75) == pytest.approx(3.0)
    assert percentile(values, 50) < percentile(values, 75) < percentile(values, 99)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_kernel_percentile_spreads_less_than_nearest_rank_on_noisy_checks():
    # 66 latencies that climb steeply through the middle, as the desk
    # checks do, each timed with independent noise, in 200 seeded trials.
    rng = random.Random(5)
    base = [0.5 * 1.15 ** k for k in range(66)]

    def spread(estimate):
        values = []
        for _ in range(200):
            noisy = sorted(x * rng.lognormvariate(0.0, 0.3) for x in base)
            values.append(estimate(noisy))
        q = statistics.quantiles(values, n=4)
        return (q[2] - q[0]) / statistics.median(values)

    nearest = spread(lambda v: v[32])
    kernel = spread(lambda v: percentile(v, 50))
    assert kernel < 0.8 * nearest


# -- self time ----------------------------------------------------------------

def test_self_time_of_a_synthetic_span_tree():
    # root 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; span 1 has child
    # 3 [2, 3]; span 2 spent 1.5 s in counted calls outside any child span.
    parent = [-1, 0, 0, 1]
    start = [0.0, 1.0, 5.0, 2.0]
    end = [10.0, 4.0, 9.0, 3.0]
    counted = [0.0, 0.0, 1.5, 0.0]
    own = tracing.self_times(parent, start, end, counted)
    assert own == pytest.approx([3.0, 2.0, 2.5, 1.0])
    assert sum(own) + sum(counted) == pytest.approx(end[0] - start[0])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_splits_time_between_spans_and_counted_calls():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def tick(dt):
        clock.now += dt

    inner_span = tracer.span("inner", lambda: tick(2.0))

    def arithmetic():          # counted, with a span nested inside it
        tick(1.0)
        inner_span()
        tick(0.5)

    counted = tracer.counted("arith", arithmetic)

    def outer_body():
        tick(1.0)
        counted()
        tick(3.0)

    tracer.span("outer", outer_body)()
    summary = tracer.span_summary()
    assert summary["outer"] == (1, pytest.approx(4.0))
    assert summary["inner"] == (1, pytest.approx(2.0))
    assert tracer.counted_calls["arith"] == 1
    assert tracer.counted_self["arith"] == pytest.approx(1.5)
    total = sum(s for _, s in summary.values()) + tracer.counted_self["arith"]
    assert total == pytest.approx(clock.now)


def test_install_wraps_every_binding_and_restore_undoes_it():
    lib = Library(HERE.parent)
    circle = lib.baxter_core.circle
    before = {m.__name__: dict(vars(m)) for m in lib.modules()}
    tracer = tracing.Tracer()
    patches = tracing.install(tracer, lib)
    try:
        assert lib.verify.circle is lib.baxter_core.circle is not circle
        assert lib.dendriform.circle_lc is lib.baxter_core.circle_lc
        fam = lib.trees.parse_family("inf,2")
        a = lib.trees.parse_tree("1(. 2 .)")
        b = lib.trees.parse_tree("1(. 3 .)")
        lib.baxter_core.circle_lc(fam, lib.baxter_core.LinComb(a),
                                  lib.baxter_core.LinComb(b))
    finally:
        patches.restore()
        lib.clear_memos()
    assert {m.__name__: dict(vars(m)) for m in lib.modules()} == before
    spans = tracer.span_summary()
    assert spans["baxter_core.circle"][0] >= 1
    assert spans["trees.parse"][0] == 2
    assert tracer.counted_calls["scalars.mul"] > 0
    assert tracer.stats["terms_copied"] > 0


# -- scaling to the reference speed ----------------------------------------------

def test_rolling_means_centre_the_window_and_shift_it_at_the_ends():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert speed.rolling_means(values, 3) == pytest.approx([2.0, 2.0, 3.0, 4.0, 5.0, 5.0])
    assert speed.rolling_means(values, 1) == values
    assert speed.rolling_means([1.0, 3.0], 5) == [2.0, 2.0]


def test_scaled_interval_integrates_the_speed_over_it():
    meter = speed.Speedometer(window=1)
    r = speed.REFERENCE_S
    # Timings at clock 0, 1 and 2: normal speed, half speed, normal speed.
    meter.stamps, meter.timings = [0.0, 1.0, 2.0], [r, 2 * r, r]
    assert meter.factors() == pytest.approx([1.0, 0.5, 1.0])
    assert meter.scaled(0.25, 0.75) == pytest.approx(0.5)
    assert meter.scaled(1.2, 1.6) == pytest.approx(0.2)
    assert meter.scaled(0.5, 2.5) == pytest.approx(0.5 + 0.5 + 0.5)
    assert meter.scaled(-1.0, 0.0) == pytest.approx(1.0)   # before the first timing
    assert meter.scaled(3.0, 5.0) == pytest.approx(2.0)    # after the last one


def test_work_at_any_machine_speed_scales_to_the_same_time():
    # Two machines run the same work, one at a third of the other's speed
    # throughout; the reference code slows with it.
    r = speed.REFERENCE_S
    fast, slow = speed.Speedometer(window=3), speed.Speedometer(window=3)
    fast.stamps, fast.timings = [0.0, 1.0, 2.0, 3.0], [r / 2] * 4
    slow.stamps, slow.timings = [0.0, 3.0, 6.0, 9.0], [1.5 * r] * 4
    assert fast.scaled(0.5, 3.5) == pytest.approx(slow.scaled(1.5, 10.5))


def test_speedometer_takes_timings_off_the_clock_and_restores_the_timer():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(interval=0.02) as meter:
        start, wall, paused = meter.clock(), time.perf_counter(), meter.paused
        while time.perf_counter() - wall < 0.3:
            pass
        took, wall = meter.clock() - start, time.perf_counter() - wall
        paused = meter.paused - paused
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.timings) >= 4 and meter.stamps == sorted(meter.stamps)
    assert paused > 0
    assert took == pytest.approx(wall - paused, abs=1e-3)


# -- golden outputs and the fail ratio ------------------------------------------

class StubPool:
    commands = [["a"], ["b"], ["c"]]
    deep = {2}

    def fingerprint(self):
        return "stub"


def test_golden_mismatch_counts_as_failed_op():
    session = CliSession(lib=None, seed=3, pool=StubPool())
    session.stream = [0, 1, 2, 0]
    good = [(0, "out a\n", ""), (0, "out b\n", ""), (4, "", "domain error\n")]
    golden = {"pool": "stub", "outputs": [digest(repr(o)) for o in good]}

    clean = Run([0.001] * 4, 0.004, [good[0], good[1], good[2], good[0]])
    assert session.check(clean, golden).failed == 0

    wrong = Run([0.001] * 4, 0.004, [good[0], (0, "out B\n", ""), good[2], good[0]])
    verdict = session.check(wrong, golden)
    assert (verdict.attempted, verdict.failed, verdict.unexpected) == (4, 1, 1)
    values, _ = run.end_to_end([wrong], [verdict], setup=(0.1, 0.12), peak=20.0)
    assert values["ok_ratio"] == pytest.approx(0.75)


def test_products_mismatch_fails_the_whole_family():
    lib = Library(HERE.parent)
    work = Products(lib, seed=5)
    fam = lib.trees.parse_family("inf,2")
    a, b = lib.trees.parse_tree("1(. 2 .)"), lib.trees.parse_tree("1(. 3 .)")
    work.pairs = [(fam, a, b), (fam, b, a), (fam, a, a)]
    work.family_sizes = {"inf,2": 3}
    work.order = [2, 0, 1]
    try:
        first = work.run()
        golden = work.golden(first)
        assert work.check(first, golden).failed == 0
        again = work.run()             # equal outputs: the cheap path
        assert work.check(again, golden).failed == 0
        wrong = Run([0.0] * 3, 0.0, [first.outputs[1], first.outputs[1], first.outputs[2]])
        verdict = work.check(wrong, golden)
        assert (verdict.failed, verdict.unexpected) == (3, 3)
    finally:
        lib.clear_memos()


def test_recursion_error_is_expected_only_on_over_deep_commands():
    session = CliSession(lib=None, seed=3, pool=StubPool())
    session.stream = [0, 2]
    golden = {"pool": "stub", "outputs": [digest(repr((0, "x", ""))), None, None]}
    deep = Run([0.001] * 2, 0.002,
               [(0, "x", ""), _op_error(RecursionError("too deep"))])
    verdict = session.check(deep, golden)
    assert (verdict.failed, verdict.unexpected) == (1, 0)
    crash = Run([0.001] * 2, 0.002, [(0, "x", ""), _op_error(KeyError("k"))])
    assert session.check(crash, golden).unexpected == 1
    # A command with no golden output passes whenever it returns.
    fixed = Run([0.001] * 2, 0.002, [(0, "x", ""), (4, "", "domain error\n")])
    assert session.check(fixed, golden).failed == 0


def test_recursion_error_on_a_command_with_golden_output_is_unexpected():
    session = CliSession(lib=None, seed=3, pool=StubPool())
    session.stream = [0, 2]
    golden = {"pool": "stub", "outputs": [digest(repr((0, "x", ""))), None, None]}
    shallow = Run([0.001] * 2, 0.002,
                  [_op_error(RecursionError("parser recursed")), (0, "y", "")])
    verdict = session.check(shallow, golden)
    assert (verdict.failed, verdict.unexpected) == (1, 1)


def test_recursion_error_in_verify_fails_every_check():
    work = VerifyDesk(lib=None, seed=1)
    golden = {"checks": [["s", f"c{i}", True] for i in range(3)]}
    raised = Run([], 1.0, [_op_error(RecursionError("deep")), []])
    verdict = work.check(raised, golden)
    assert (verdict.attempted, verdict.failed, verdict.unexpected) == (3, 3, 3)


# -- the command stream -----------------------------------------------------------

def test_apportion_sums_to_total_and_follows_weights():
    assert apportion([1.0] * 8, 60) == [8, 8, 8, 8, 7, 7, 7, 7]
    counts = apportion([1.0 / r for r in range(1, 601)], 3000)
    assert sum(counts) == 3000
    assert counts == sorted(counts, reverse=True)


def test_stream_holds_the_same_commands_at_every_seed():
    pool = CommandPool()
    streams = [CliSession(lib=None, seed=s, pool=pool).stream for s in (1, 2)]
    assert streams[0] != streams[1]
    assert sorted(streams[0]) == sorted(streams[1])
    assert len(streams[0]) == CliSession.commands
    assert len(pool.commands) == CommandPool.size
    assert len(pool.deep) == 7   # an eighth of the malformed tenth


def test_each_iteration_reorders_the_same_stream_from_the_seed():
    pool = CommandPool()

    def orders(seed):
        session = CliSession(lib=None, seed=seed, pool=pool)
        out = []
        for iteration in range(3):
            session.arrange(iteration)
            out.append(list(session.stream))
        return out

    first = orders(4)
    assert first == orders(4)
    assert first[0] == CliSession(lib=None, seed=4, pool=pool).stream
    assert first[0] != first[1] != first[2]
    assert sorted(first[0]) == sorted(first[1]) == sorted(first[2])
    assert orders(5)[1] != first[1]


# -- metric names ---------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for group, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[group]]
        assert declared == list(emitted)
        for name, unit in declared:
            assert NAME.fullmatch(name), name
            assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    names = [m["name"] for g in ("end_to_end", "per_layer") for m in spec[g]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
