"""The benchmark's span hooks replace lcfi names by lookup at call time, so
a rename in lcfi would break `perfbench/run.py --trace 1` without an error in
lcfi's own tests. This reads perfbench/child.py (it never imports it) and
checks that every name `Spans.install` wraps still exists, and that a run
still offers what `layer_metrics` reads from it."""

import ast
import importlib
import os
import pickle

import lcfi.vm.machine as machine
from lcfi.faults import make_sampler
from lcfi.instrument import assign_indices, build_plan, load_input_config

from conftest import FIXTURES, fixture_path, load_fixture_module, rendered

CHILD = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "child.py")


def _wrapped_names() -> list[tuple[str, str]]:
    """(module, attribute) for each name Spans.install replaces."""
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    install = next(n for n in ast.walk(tree)
                   if isinstance(n, ast.FunctionDef) and n.name == "install")
    modules = {alias.asname: alias.name for n in ast.walk(install)
               if isinstance(n, ast.Import) for alias in n.names}
    names = []
    for node in ast.walk(install):
        if isinstance(node, ast.For):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "setattr"):
                    module = modules[call.args[0].id]
                    for item in node.iter.elts:
                        attr = item.elts[0] if isinstance(item, ast.Tuple) else item
                        names.append((module, attr.value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in modules):
                    names.append((modules[target.value.id], target.attr))
    return names


def test_wrapped_names_exist():
    names = _wrapped_names()
    assert {m for m, _a in names} == {"lcfi.campaign", "lcfi.vm.machine"}
    assert ("lcfi.campaign", "Machine") in names
    missing = [f"{m}.{a}" for m, a in names
               if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_run_offers_what_layer_metrics_reads(monkeypatch, demo_io):
    # Spans.install swaps these two names in lcfi.vm.machine; the machine must
    # look them up when it calls them, or the faults.draw span sees nothing.
    calls = []
    for name in ("sample_error", "apply_fault"):
        def counted(*args, _real=getattr(machine, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(machine, name, counted)
    module = assign_indices(load_fixture_module("demo.ll"))
    cfg = load_input_config(fixture_path("demo_input.yaml"))
    plan = build_plan(module, cfg)
    sampler = make_sampler(cfg.fault_spec(base_dir=FIXTURES), 5)
    mach = machine.Machine(module, io=demo_io, budget=10 ** 6, trace=True,
                           plan=plan, sampler=sampler)
    oc = mach.run()
    assert (mach.module, mach.plan, mach.sampler, mach.io, mach.budget) == (
        module, plan, sampler, demo_io, 10 ** 6)
    assert (mach.sampler.spec, mach.sampler.seed) == (sampler.spec, 5)
    assert oc.activation_count > 0 and oc.activations[0].step >= 1
    assert calls.count("sample_error") == calls.count("apply_fault") == oc.activation_count
    # layer_metrics reads a run's packed trace: its length, its records'
    # render() lines, and then the pickle of (i, oc) a pool would return
    assert len(oc.trace) == len(oc.trace.idx) > 0
    assert all(isinstance(r.index, int) for r in oc.trace)
    lines = [r.render() for r in oc.trace]
    assert rendered(oc.trace) == "".join(line + "\n" for line in lines).encode()
    i, again = pickle.loads(pickle.dumps((3, oc)))
    assert i == 3 and len(again.trace) == len(oc.trace)
    assert [r.render() for r in again.trace] == lines


def test_patched_machine_sees_every_injection_run(monkeypatch, tmp_path):
    # perfbench times each run by patching a Machine subclass into
    # lcfi.campaign; runs that start from the golden snapshot must still be
    # built and run through it, and report whole traces and absolute steps.
    import lcfi.campaign as campaign
    from lcfi.faults import mix64

    seen = []

    class Counting(campaign.Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(["init", self])

        def run(self, *args, **kwargs):
            outcome = super().run(*args, **kwargs)
            seen.append(["run", self, outcome])
            return outcome

    monkeypatch.setattr(campaign, "Machine", Counting)
    cfg = campaign.CampaignConfig(program=fixture_path("cg.ll"),
                                  input=fixture_path("cg_input.yaml"), runs=4,
                                  output_dir=str(tmp_path))
    campaign.run_campaign(cfg)
    injection = [event for event in seen if event[1].plan is not None]
    assert [event[0] for event in injection] == ["init", "run"] * cfg.runs

    module = assign_indices(campaign.load_program(cfg.program))
    input_cfg = load_input_config(cfg.input)
    plan = build_plan(module, input_cfg)
    spec = input_cfg.fault_spec(base_dir=FIXTURES)
    for i, (_kind, mach, oc) in enumerate(injection[1::2]):
        seed = mix64(input_cfg.seed, i, 0)
        assert (mach.sampler.spec, mach.sampler.seed) == (spec, seed)
        scratch = machine.Machine(module, io=cfg.io_config(), budget=cfg.budget,
                                  trace=True, plan=plan,
                                  sampler=make_sampler(spec, seed)).run()
        assert oc.activation_count > 0
        assert oc.activations[0].step == scratch.activations[0].step > 800
        assert len(oc.trace) == len(scratch.trace)
        assert oc.trace[0] == scratch.trace[0]
        # perfbench's untraced rerun from scratch, as `--trace 1` makes it
        again = machine.Machine(mach.module, io=mach.io, budget=mach.budget,
                                plan=mach.plan, sampler=make_sampler(spec, seed)).run()
        assert (again.steps, again.stdout, again.status) == (oc.steps, oc.stdout,
                                                             oc.status)
