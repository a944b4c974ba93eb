"""Injection runs start from a snapshot of the plan's fault-free prefix and
write their traces against golden's text. Every run must leave the same
files and the same summary as a run from scratch written the plain way."""

import os
import pickle
from dataclasses import dataclass, fields, replace

import pytest
import yaml

from lcfi.campaign import (CampaignConfig, _injection_log, classify_outcome,
                           load_program, run_campaign)
from lcfi.faults import make_sampler, mix64
from lcfi.instrument import (InjectionPlan, OccurrenceScope, PlanTarget, assign_indices,
                             build_plan, load_input_config)
from lcfi.traces import write_trace
from lcfi.vm.intrinsics import InStream
from lcfi.vm.machine import IoConfig, Machine, RunState, prefix_snapshot

from conftest import FIXTURES, fixture_path, rendered

RUNS = 6
# (program, input config, budget, whether runs start from a snapshot)
CASES = {
    "demo": ("demo", "demo_input.yaml", 10 ** 8, True),
    "cg": ("cg", "cg_input.yaml", 10 ** 8, True),
    "fragile": ("fragile", "fragile_input.yaml", 10 ** 8, True),
    "masked": ("masked", "masked_input.yaml", 10 ** 8, True),
    "cg_loop": ("cg", "cg_loop_input.yaml", 10 ** 8, True),
    "demo_loop_iteration": ("demo", {"loop_mode": "loop_iteration",
                                     "loop_num": [1, 2]}, 10 ** 8, True),
    # demo calls process three times, so its fourth call never comes
    "never_in_scope": ("demo", {"loop_num": 4}, 10 ** 8, False),
}


def _config(tmp_path, case: str, jobs: int) -> CampaignConfig:
    program, config, budget, _snap = CASES[case]
    if isinstance(config, dict):  # demo's input with these keys changed
        with open(fixture_path("demo_input.yaml"), encoding="utf-8") as fh:
            data = {**yaml.safe_load(fh), **config}
        path = tmp_path / f"{case}_input.yaml"
        path.write_text(yaml.safe_dump(data))
        config = str(path)
    else:
        config = fixture_path(config)
    return CampaignConfig(program=fixture_path(f"{program}.ll"), input=config,
                          runs=RUNS, budget=budget, jobs=jobs,
                          output_dir=str(tmp_path / f"out{jobs}"),
                          files={"in.txt": "4 3 3\n"})


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_runs_match_runs_from_scratch(tmp_path, case, jobs):
    cfg = _config(tmp_path, case, jobs)
    result = run_campaign(cfg)

    module = assign_indices(load_program(cfg.program))
    input_cfg = load_input_config(cfg.input)
    plan = build_plan(module, input_cfg)
    spec = input_cfg.fault_spec(base_dir=os.path.dirname(cfg.input))
    start = prefix_snapshot(module, cfg.io_config(), cfg.budget, plan)
    assert (start is not None) == CASES[case][3]
    if case == "cg":  # the first draw is in axpy, called from main
        assert len(start.state.frames) == 2

    llfi = os.path.join(cfg.output_dir, "llfi")
    stat = os.path.join(llfi, "llfi_stat_output")
    for i, rr in enumerate(result.runs):
        seed = mix64(input_cfg.seed, i, 0)
        oc = Machine(module, io=cfg.io_config(), budget=cfg.budget, trace=True,
                     plan=plan, sampler=make_sampler(spec, seed)).run()
        expected_trace = tmp_path / f"trace.{i}.txt"
        write_trace(oc.trace, str(expected_trace))
        assert _read(os.path.join(stat, f"llfi.stat.trace.{i}-0.txt")) == \
            _read(expected_trace)
        assert _read(os.path.join(llfi, "std_output", f"std_outputfile-run-{i}-0")) \
            == oc.stdout.encode()
        assert _read(os.path.join(stat, f"llfi.stat.fi.injectedfaults.{i}-0.txt")) \
            == _injection_log(oc, i, seed).encode()
        assert (rr.seed, rr.outcome, rr.activation_count, rr.skipped_nonfinite,
                rr.steps, rr.trap_kind) == (
            seed, classify_outcome(result.golden, oc, cfg.compare),
            oc.activation_count, oc.skipped_nonfinite, oc.steps,
            oc.trap.kind if oc.trap else "")
    if CASES[case][3]:
        assert any(r.activation_count for r in result.runs)
    else:
        assert {r.outcome for r in result.runs} == {"benign_not_activated"}


def test_hanging_run_matches_run_from_scratch():
    # looper's golden run never returns, so no campaign can run it
    module = assign_indices(load_program(fixture_path("looper.ll")))
    input_cfg = load_input_config(fixture_path("looper_input.yaml"))
    plan = build_plan(module, input_cfg)
    spec = input_cfg.fault_spec(base_dir=FIXTURES)
    start = prefix_snapshot(module, IoConfig(), 3000, plan)
    assert start is not None and len(start.state.frames) == 2  # inside spin
    start = pickle.loads(pickle.dumps(start))  # plain data, as a pool sends it
    for seed in range(4):
        runs = [Machine(module, budget=3000, trace=True, plan=plan,
                        sampler=make_sampler(spec, seed), start=s).run()
                for s in (None, start)]
        scratch, resumed = runs
        assert resumed.status == scratch.status == "budget_exhausted"
        assert resumed.activation_count == 1
        assert (resumed.steps, resumed.stdout, resumed.activations) == (
            scratch.steps, scratch.stdout, scratch.activations)
        assert rendered(resumed.trace) == rendered(scratch.trace)


def _plan_at(module, result: str, nth: int) -> InjectionPlan:
    """A plan that faults the `nth` value of main's register `result`."""
    ins = next(ins for _f, _b, ins in module.all_instructions() if ins.result == result)
    return InjectionPlan((PlanTarget(ins.index, "main", "i32"),),
                         OccurrenceScope("nth_execution", (nth,)))


def test_no_snapshot_when_the_prefix_ends_first():
    module = assign_indices(load_program(fixture_path("crasher.ll")))
    io = IoConfig()
    # crasher traps on the load after its second %iv
    assert prefix_snapshot(module, io, 10 ** 8, _plan_at(module, "iv", 2)).state.steps == 12
    assert prefix_snapshot(module, io, 10 ** 8, _plan_at(module, "iv", 3)) is None
    # the second %iv is step 13
    assert prefix_snapshot(module, io, 13, _plan_at(module, "iv", 2)).state.steps == 12
    assert prefix_snapshot(module, io, 12, _plan_at(module, "iv", 2)) is None


def _start(program: str, config: str, budget: int, io: IoConfig):
    module = assign_indices(load_program(fixture_path(f"{program}.ll")))
    input_cfg = load_input_config(fixture_path(config))
    plan = build_plan(module, input_cfg)
    spec = input_cfg.fault_spec(base_dir=FIXTURES)
    return module, plan, spec, prefix_snapshot(module, io, budget, plan)


def _looper_start():
    return _start("looper", "looper_input.yaml", 3000, IoConfig())


@pytest.mark.parametrize("change", ["module", "plan", "io", "budget"])
def test_start_refuses_a_snapshot_of_another_run(change):
    module, plan, spec, start = _looper_start()
    kw = {"io": IoConfig(), "budget": 3000, "plan": plan}
    if change == "module":
        module = assign_indices(load_program(fixture_path("demo.ll")))
    else:
        kw[change] = {"plan": _plan_at(module, "r", 1), "io": IoConfig(stdin_text="7\n"),
                      "budget": start.state.steps - 1}[change]
    with pytest.raises(ValueError):
        Machine(module, sampler=make_sampler(spec, 1), start=start, **kw)


def test_start_at_a_budget_that_ends_at_the_snapshot():
    module, plan, spec, start = _looper_start()
    assert start.state.skipped_nonfinite == 0
    for budget in (start.state.steps, start.state.steps + 1):
        runs = [Machine(module, budget=budget, trace=True, plan=plan,
                        sampler=make_sampler(spec, 1), start=s).run()
                for s in (None, start)]
        assert runs[0].steps == runs[1].steps == budget + 1
        assert runs[0].activations == runs[1].activations
        assert rendered(runs[0].trace) == rendered(runs[1].trace)


@pytest.mark.parametrize("program, config, budget, io", [
    ("looper", "looper_input.yaml", 3000, IoConfig()),
    ("cg", "cg_input.yaml", 10 ** 8, IoConfig(workdir=FIXTURES)),
])
def test_untraced_start_matches_untraced_run_from_scratch(program, config, budget, io):
    module, plan, spec, start = _start(program, config, budget, io)
    for seed in range(3):
        scratch, resumed = [Machine(module, io=io, budget=budget, plan=plan,
                                    sampler=make_sampler(spec, seed), start=s).run()
                            for s in (None, start)]
        assert resumed.trace is None and scratch.trace is None
        assert resumed.activation_count > 0
        assert (resumed.status, resumed.steps, resumed.stdout, resumed.activations) == (
            scratch.status, scratch.steps, scratch.stdout, scratch.activations)


def _mutable_parts(state: RunState) -> list:
    """The objects in `state` that a run changes: every field that is not an
    int or None, each frame with its registers and loop trips, each stream
    and each arena's memory."""
    parts = [v for v in (getattr(state, f.name) for f in fields(state))
             if not isinstance(v, (int, type(None)))]
    parts += [p for f in state.frames for p in (f, f.regs, f.loop_trips)]
    parts += [state.stdin, *state.open_streams.values(), state.arena._mem, state.heap._mem]
    return parts


def _shared(a: RunState, b: RunState) -> list:
    ids = {id(p) for p in _mutable_parts(b)}
    return [p for p in _mutable_parts(a) if id(p) in ids]


def test_run_state_copy_shares_nothing_a_run_changes():
    # cg's loop_iteration plan counts trips in the frame the snapshot is in
    start = _start("cg", "cg_loop_input.yaml", 10 ** 8, IoConfig(workdir=FIXTURES))[3]
    state = replace(start.state, open_streams={32: InStream("1 2"), 40: InStream("3")})
    assert state.frames[-1].loop_trips and state.trace_idx
    twin = state.copy()
    assert _shared(twin, state) == []
    assert pickle.dumps(twin) == pickle.dumps(state)


@dataclass
class _MarkedState(RunState):
    mark: int = 0


def test_a_field_added_to_the_run_state_is_carried():
    module, plan, spec, start = _looper_start()
    marked = replace(start, state=_MarkedState(
        **{f.name: getattr(start.state, f.name) for f in fields(RunState)}, mark=7))
    machines = [Machine(module, budget=3000, trace=True, plan=plan,
                        sampler=make_sampler(spec, 1), start=s) for s in (start, marked)]
    assert type(machines[1].state) is _MarkedState and machines[1].state.mark == 7
    plain, carried = [m.run() for m in machines]
    assert machines[1].state.mark == 7
    assert (carried.steps, carried.activations) == (plain.steps, plain.activations)
    assert rendered(carried.trace) == rendered(plain.trace)


def test_runs_leave_their_snapshot_as_it_was():
    module, plan, spec, start = _looper_start()
    before = pickle.dumps(start)
    machines = [Machine(module, budget=3000, trace=seed % 2 == 0, plan=plan,
                        sampler=make_sampler(spec, seed), start=start) for seed in range(4)]
    for m in machines:
        assert m.run().activation_count == 1
        assert _shared(m.state, start.state) == []
    assert pickle.dumps(start) == before
