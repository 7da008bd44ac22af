"""Tests of the benchmark's own arithmetic: span times, metric names, patching."""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Target, Tracer, patched  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def traced():
    clock = FakeClock()
    return clock, Tracer(clock)


def test_self_time_with_repeated_children(traced):
    # gap_scaling -> truncated_propagator twice
    clock, tr = traced
    inner = tr.wrap("rp.truncated_propagator", lambda r: clock.advance(2.0 * r))

    def outer():
        clock.advance(1.0)
        inner(1)
        inner(2)
        clock.advance(0.5)

    tr.wrap("rp.gap_scaling", outer)()
    s = tr.summary()
    assert s["rp.gap_scaling"] == {"calls": 1, "completed": 1, "s": 7.5, "self_s": 1.5}
    assert s["rp.truncated_propagator"] == {"calls": 2, "completed": 2, "s": 6.0, "self_s": 6.0}


def test_self_time_with_nested_layers_and_counter(traced):
    # resolved_spectra -> build_sector_block -> propagator_apply per column
    clock, tr = traced
    apply = tr.wrap("core.propagator_apply", lambda: clock.advance(0.25))

    def block(n):
        for _ in range(n):
            apply()
        clock.advance(1.0)
        tr.add("core.build_sector_block.cols", n)

    block = tr.wrap("core.build_sector_block", block)

    def resolved():
        block(4)
        clock.advance(3.0)

    tr.wrap("levelstats.resolved_spectra", resolved)()
    s = tr.summary()
    assert s["core.propagator_apply"]["calls"] == 4
    assert s["core.propagator_apply"]["s"] == pytest.approx(1.0)
    assert s["core.build_sector_block"]["s"] == pytest.approx(2.0)
    assert s["core.build_sector_block"]["self_s"] == pytest.approx(1.0)
    assert s["levelstats.resolved_spectra"]["s"] == pytest.approx(5.0)
    assert s["levelstats.resolved_spectra"]["self_s"] == pytest.approx(3.0)
    assert tr.counts["core.build_sector_block.cols"] == 4


def test_same_name_nesting_counts_inclusive_time_once(traced):
    clock, tr = traced

    def rec(n):
        clock.advance(1.0)
        if n:
            wrapped(n - 1)

    wrapped = tr.wrap("core.f", rec)
    wrapped(2)
    s = tr.summary()["core.f"]
    assert s["calls"] == 3
    assert s["s"] == 3.0        # the outermost span only
    assert s["self_s"] == 3.0   # 1.0 in each of the three spans


def test_raised_call_counts_but_does_not_complete(traced):
    clock, tr = traced

    def refuse():
        clock.advance(0.5)
        raise ValueError("refused")

    wrapped = tr.wrap("rp.truncated_propagator", refuse, tag=lambda a, k: {"r": 7})
    with pytest.raises(ValueError):
        wrapped()
    s = tr.summary()["rp.truncated_propagator"]
    assert (s["calls"], s["completed"], s["s"]) == (1, 0, 0.5)
    assert tr.tagged() == []


def test_baseline_times_pick_matching_tags():
    tagged = [
        ("rp.truncated_propagator", {"r": 3}, 0.5),
        ("rp.truncated_propagator", {"r": 4}, 7.0),
        ("rp.truncated_propagator", {"r": 4}, 9.0),
        ("core.build_sector_block", {"L": 14, "m": 0, "k": 1}, 1.25),
        ("core.build_sector_block", {"L": 12, "m": 0, "k": 1}, 0.1),
    ]
    assert run.baseline_times(tagged) == {
        "rp.truncated_propagator.r3_s": 0.5,
        "rp.truncated_propagator.r4_s": 8.0,
        "core.build_sector_block.L14m0k1_s": 1.25,
    }


def test_merge_traces_sums_commands():
    a = {"functions": {"core.f": {"calls": 2, "completed": 2, "s": 1.0, "self_s": 0.5}},
         "counts": {"levelstats.blocks": 3}, "tagged": [], "missing": []}
    b = {"functions": {"core.f": {"calls": 1, "completed": 0, "s": 0.25, "self_s": 0.25}},
         "counts": {"levelstats.blocks": 2}, "tagged": [], "missing": ["core.g"]}
    functions, counts, tagged, missing = run.merge_traces([a, b])
    assert functions["core.f"] == {"calls": 3, "completed": 2, "s": 1.25, "self_s": 0.75}
    assert counts == {"levelstats.blocks": 5}
    assert missing == ["core.g"]


def test_metric_names_follow_the_grammar():
    names = list(run.per_layer_units()) + list(run.END_TO_END)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for unit in list(run.per_layer_units().values()) + list(run.END_TO_END.values()):
        assert UNIT.match(unit), unit
    for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "core.f(1)"):
        assert not NAME.match(bad), bad


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_every_wrapped_function_has_a_home_that_does_not_bypass_it():
    names = {t.name for t in tracing.TARGETS}
    assert set(workloads.HOME) == names
    for t in tracing.TARGETS:
        homes = workloads.HOME[t.name]
        assert homes and set(homes) <= set(workloads.WORKLOADS)
        assert not any(t.module in workloads.BYPASSED[w] for w in homes), t.name


def test_bypass_guard_counts_completed_calls_only():
    row = {"calls": 1, "completed": 0, "s": 0.0, "self_s": 0.0}
    home = {name: {"calls": 1, "completed": 1, "s": 0.0, "self_s": 0.0}
            for name, ws in workloads.HOME.items() if "operators" in ws}
    assert run.bypass_guard("operators", {**home, "rp.truncated_propagator": row}, []) == []
    row = dict(row, completed=1)
    problems = run.bypass_guard("operators", {**home, "rp.truncated_propagator": row}, [])
    assert len(problems) == 1 and "must bypass rp" in problems[0]
    del home["core.embed_operator"]
    problems = run.bypass_guard("operators", home, ["charges.charge_q1"])
    assert any("core.embed_operator was not called" in p for p in problems)
    assert any("charges.charge_q1 no longer exists" in p for p in problems)


def test_patch_replaces_by_name_bindings_and_restores_them():
    from mcbrick import charges, core, dynamics, gates, levelstats, rmatrix, rp

    bindings = [
        (core, "build_sector_block"), (levelstats, "build_sector_block"),
        (levelstats, "sector_basis"), (levelstats, "build_propagator"),
        (dynamics, "build_propagator"), (dynamics, "propagator_apply"),
        (charges, "embed_operator"), (charges, "commutator_defect"),
        (rp, "haar_to_r"), (rp, "haar_params_from_gate"),
        (rmatrix, "haar_to_r"), (gates, "haar_params_from_gate"),
        (charges.ChargeFamily, "conservation_defect"),
    ]
    before = [getattr(owner, name) for owner, name in bindings]
    tr = Tracer()
    with pytest.raises(RuntimeError):
        with patched(tr) as missing:
            assert missing == []
            for (owner, name), original in zip(bindings, before):
                now = getattr(owner, name)
                assert now is not original and now.__wrapped__ is original
            assert levelstats.build_sector_block is core.build_sector_block
            levelstats.sector_basis(4, 0)
            raise RuntimeError("restore must survive an exception")
    assert [getattr(owner, name) for owner, name in bindings] == before
    assert tr.summary()["core.sector_basis"]["calls"] == 1


def test_patch_reports_missing_targets():
    with patched(Tracer(), [Target("core", "no_such_function")]) as missing:
        assert missing == ["core.no_such_function"]
