"""Self-test of the benchmark's checks and tracer.

    python3 -m pytest -q bench/test_bench.py

Shows that a flipped residue word, an altered modeled number or a compile
that drifts from compile_program each count as a failure, and that the
traced run's spans nest and export as loadable JSON.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import harness  # noqa: E402
import spans  # noqa: E402
from harness import Bench, CheckFailed  # noqa: E402
from spans import NULL, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def desk():
    bench = Bench("he_desk", seed=3)
    bench.setup(NULL)
    assert bench.failures == []
    return bench


def test_clean_iteration_passes(desk):
    assert desk.attempt("clean", lambda: desk.iterate(1, NULL))


def test_flipped_residue_word_fails(desk, monkeypatch):
    real = harness.execute_program

    def flip_one_word(prog, img):
        res = real(prog, img)
        res.dram["out0"][2].coeffs[17] ^= 1
        return res

    monkeypatch.setattr(harness, "execute_program", flip_one_word)
    before = len(desk.failures)
    assert not desk.attempt("flipped", lambda: desk.iterate(2, NULL))
    assert len(desk.failures) == before + 1
    assert "residue words differ" in desk.failures[-1]


def test_altered_modeled_number_fails(desk, monkeypatch):
    desk.compiled = desk.swept = None
    assert desk.attempt("first", lambda: desk.compile_step(NULL, False))
    real = harness.simulate

    def one_more_cycle(prog, hw):
        rep = real(prog, hw)
        rep.cycles += 1
        return rep

    monkeypatch.setattr(harness, "simulate", one_more_cycle)
    assert not desk.attempt("altered", lambda: desk.compile_step(NULL, False))
    assert "compile outputs differ" in desk.failures[-1]


def test_model_cross_check_fails_on_altered_sweep(desk):
    desk.compiled = desk.swept = None
    desk.model(NULL)
    before = len(desk.failures)
    desk.swept["streaming"]["dram_bytes"] += 8
    desk.model(NULL)
    assert len(desk.failures) == before + 1


def test_by_pass_compile_matches_and_drift_fails(desk, monkeypatch):
    desk.compiled = None
    tr = Tracer()
    assert desk.attempt("compile_program",
                        lambda: desk.compile_step(tr, False))
    assert desk.attempt("by pass", lambda: desk.compile_step(tr, True))
    assert tr.counts["compiler.merge_spill_traffic.instrs"] > 0
    monkeypatch.setattr(harness, "PASSES", tuple(
        p for p in harness.PASSES if p[0] != "merge_streaming"))
    assert not desk.attempt("drift", lambda: desk.compile_step(tr, True))


def test_cli_probe_matches_report(desk, tmp_path):
    desk.compiled = None
    desk.compile_step(NULL, False)
    harness.probe_cli(desk.blob, desk.compiled["sim"], NULL, str(tmp_path))
    wrong = dict(desk.compiled["sim"], cycles=desk.compiled["sim"]["cycles"]
                 + 1)
    with pytest.raises(CheckFailed):
        harness.probe_cli(desk.blob, wrong, NULL, str(tmp_path))


def test_spans_nest_and_export(tmp_path):
    tr = Tracer()
    tr.iteration = 1
    with tr.span("bench.iteration"):
        with tr.span("ckks.hmult"):
            pass
        with tr.span("ckks.hrot"):
            pass
    own = spans.self_seconds(tr.spans)
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - tr.spans[0].seconds) < 1e-9
    assert [s.parent for s in tr.spans] == [None, 0, 0]
    _, chrome = spans.write_trace(tr, str(tmp_path / "t"))
    with open(chrome) as f:
        events = json.load(f)["traceEvents"]
    assert [e["name"] for e in events] == ["bench.iteration", "ckks.hmult",
                                           "ckks.hrot"]
    tr.spans[1].end = tr.spans[0].end + 1.0
    with pytest.raises(ValueError):
        spans.self_seconds(tr.spans)


def test_tail_percentile():
    assert harness.tail([3.0, 1.0, 2.0]) == (2.0, 50)
    values = [float(v) for v in range(40)]
    assert harness.tail(values) == (29.0, 75)
