import copy
import os
import re

import pytest

from lcfi.instrument import (FunctionNotFound, InputConfig, InstrumentError,
                             MainFunctionRejected, NonNumericTarget,
                             OccurrenceScope, PlanTarget, TargetConfigError,
                             TargetSpec, VariableNotFound, assign_indices,
                             build_plan, check_indexed, derive_scope,
                             emit_artifacts, load_input_config,
                             loop_blocks_for, parse_input_config,
                             resolve_targets)
from lcfi.ir.parser import parse_module

from conftest import FIXTURES, fixture_path, load_fixture_module


class TestIndexing:
    def test_contiguous_textual_order(self, demo_indexed):
        indices = [ins.index for _f, _b, ins in demo_indexed.all_instructions()]
        assert indices == list(range(1, 51))
        check_indexed(demo_indexed)

    def test_original_untouched(self, demo_module):
        assign_indices(demo_module)
        assert all(ins.index is None
                   for _f, _b, ins in demo_module.all_instructions())

    def test_idempotent(self, demo_indexed):
        assert assign_indices(demo_indexed) == demo_indexed

    @pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXTURES)
                                            if n.endswith(".ll")))
    def test_renumbered_copy_equals_a_deep_copy(self, name):
        module = load_fixture_module(name)
        before = copy.deepcopy(module)
        expected = copy.deepcopy(module)
        for number, (_f, _b, ins) in enumerate(expected.all_instructions(), start=1):
            ins.index = number
        indexed = assign_indices(module)
        assert indexed == expected
        assert module == before
        assert all(ins.index is None for _f, _b, ins in module.all_instructions())
        # new objects down to the instructions; the frozen parts are shared
        for fn, new_fn in zip(module.functions, indexed.functions):
            assert new_fn is not fn
            for block, new_block in zip(fn.blocks, new_fn.blocks):
                assert new_block is not block
                assert new_block.instructions is not block.instructions
                for ins, new_ins in zip(block.instructions, new_block.instructions):
                    assert new_ins is not ins and new_ins.result_type is ins.result_type
        assert indexed.globals is not module.globals
        assert all(g is h for g, h in zip(indexed.globals, module.globals))

    def test_check_rejects_gaps(self, demo_indexed):
        broken = copy.deepcopy(demo_indexed)
        broken.functions[0].blocks[0].instructions[3].index = 99
        with pytest.raises(InstrumentError, match="not contiguous"):
            check_indexed(broken)


class TestConfigParsing:
    def test_demo_yaml(self):
        cfg = load_input_config(fixture_path("demo_input.yaml"))
        assert cfg.fi_type == "uniform_rel(0.5)"
        assert cfg.loop_num == (3,)
        assert cfg.loop_mode == "invocation"
        assert cfg.seed == 2025
        assert cfg.warnings == []
        (opt,) = cfg.options
        assert opt == TargetSpec("process", "n", variable_location=1,
                                 in_arr=True, in_loop=True, variable_init=True)

    def _base(self, **extra):
        data = {
            "fi_type": "uniform_abs(1.0)",
            "option": [{"function_name": "process", "variable_name": "ans"}],
        }
        data.update(extra)
        return data

    def test_defaults(self):
        cfg = parse_input_config(self._base())
        assert cfg.loop_num == (1,)
        assert cfg.loop_mode == "invocation"
        assert cfg.seed == 0
        opt = cfg.options[0]
        assert (opt.variable_location, opt.in_arr, opt.in_loop) == (1, False, False)

    def test_unknown_keys_warn_not_fail(self):
        cfg = parse_input_config(self._base(mystery=1))
        assert any("mystery" in w for w in cfg.warnings)
        data = self._base()
        data["option"][0]["bogus"] = True
        cfg = parse_input_config(data)
        assert any("bogus" in w for w in cfg.warnings)

    def test_truncate_is_an_unknown_key(self):
        cfg = parse_input_config(self._base(truncate=False))
        assert cfg.warnings == ["unknown key 'truncate' ignored"]

    def test_seed_salt_is_an_unknown_key(self):
        cfg = parse_input_config(self._base(seed_salt=42))
        assert cfg.warnings == ["unknown key 'seed_salt' ignored"]
        assert cfg.fault_spec() == parse_input_config(self._base()).fault_spec()

    def test_loop_num_list_dedup_sorted(self):
        cfg = parse_input_config(self._base(loop_num=[4, 2, 2, 9]))
        assert cfg.loop_num == (2, 4, 9)

    def test_variable_num_mismatch(self):
        with pytest.raises(TargetConfigError, match="variable_num"):
            parse_input_config(self._base(variable_num=2))

    def test_variable_num_match_ok(self):
        parse_input_config(self._base(variable_num=1))

    @pytest.mark.parametrize("mutate", [
        {"fi_type": None},
        {"option": []},
        {"option": "nope"},
        {"loop_num": 0},
        {"loop_num": [0]},
        {"loop_mode": "sometimes"},
        {"seed": "abc"},
        {"seed": True},
        {"option": [{"function_name": "process", "variable_name": None}]},
        {"option": [{"function_name": None, "variable_name": "n"}]},
    ])
    def test_rejected_values(self, mutate):
        data = self._base()
        data.update(mutate)
        if data["fi_type"] is None:
            del data["fi_type"]
        with pytest.raises(TargetConfigError):
            parse_input_config(data)

    @pytest.mark.parametrize("key", ["function_name", "variable_name"])
    def test_null_name_is_rejected(self, key):
        data = self._base()
        data["option"][0][key] = None
        with pytest.raises(TargetConfigError,
                           match=re.escape(f"<config>: option[0].{key} must not be null")):
            parse_input_config(data)

    def test_top_level_must_be_mapping(self):
        with pytest.raises(TargetConfigError, match="mapping"):
            parse_input_config(["not", "a", "dict"])

    def test_option_needs_names(self):
        with pytest.raises(TargetConfigError, match="function_name"):
            parse_input_config({"fi_type": "uniform_abs(1)",
                                "option": [{"variable_name": "x"}]})

    def test_percent_sign_stripped_from_variable(self):
        data = self._base()
        data["option"][0]["variable_name"] = "%ans"
        assert parse_input_config(data).options[0].variable_name == "ans"


class TestResolution:
    def test_demo_plan_single_f64_target(self, demo_indexed):
        cfg = load_input_config(fixture_path("demo_input.yaml"))
        plan = build_plan(demo_indexed, cfg)
        assert plan.targets == (PlanTarget(15, "process", "f64"),)
        assert plan.scope == OccurrenceScope("invocation", (3,))

    def test_param_spill_slot_found(self, demo_indexed):
        # n lives in the spill slot %1; access 1 is the pointer reload,
        # access 2 the element load
        spec = TargetSpec("process", "n", variable_location=2)
        (ins,) = resolve_targets(demo_indexed, spec)
        assert ins.index == 15

    def test_local_variable_accesses_in_order(self, demo_indexed):
        spec = TargetSpec("process", "i", variable_location=2)
        (ins,) = resolve_targets(demo_indexed, spec)
        assert ins.index == 11
        spec4 = TargetSpec("process", "i", variable_location=4)
        (ins4,) = resolve_targets(demo_indexed, spec4)
        assert ins4.index == 21

    def test_pointer_load_is_non_numeric(self, demo_indexed):
        with pytest.raises(NonNumericTarget):
            resolve_targets(demo_indexed, TargetSpec("process", "n",
                                                     variable_location=1))

    def test_in_arr_skips_pointer_loads(self, demo_indexed):
        spec = TargetSpec("process", "n", variable_location=1, in_arr=True)
        picked = resolve_targets(demo_indexed, spec)
        assert [i.index for i in picked] == [15]

    def test_location_past_last_access(self, demo_indexed):
        with pytest.raises(VariableNotFound, match="does not exist"):
            resolve_targets(demo_indexed, TargetSpec("process", "n",
                                                     variable_location=3))

    def test_function_not_found(self, demo_indexed):
        with pytest.raises(FunctionNotFound):
            resolve_targets(demo_indexed, TargetSpec("nope", "x"))

    def test_variable_not_found(self, demo_indexed):
        with pytest.raises(VariableNotFound):
            resolve_targets(demo_indexed, TargetSpec("process", "ghost"))

    def test_main_rejected(self, demo_indexed):
        with pytest.raises(MainFunctionRejected):
            resolve_targets(demo_indexed, TargetSpec("main", "arr"))

    def test_mixed_scopes_rejected(self, demo_indexed):
        cfg = InputConfig(
            fi_type="uniform_abs(1.0)",
            options=[
                TargetSpec("process", "ans", variable_location=1, in_loop=True),
                TargetSpec("process", "i", variable_location=1, in_loop=False),
            ])
        with pytest.raises(TargetConfigError, match="disagree"):
            build_plan(demo_indexed, cfg)

    def test_multiple_options_merge(self, demo_indexed):
        cfg = InputConfig(
            fi_type="uniform_abs(1.0)",
            options=[
                TargetSpec("process", "ans", variable_location=1),
                TargetSpec("process", "i", variable_location=1),
            ])
        plan = build_plan(demo_indexed, cfg)
        assert sorted(plan.target_indices()) == [8, 18]
        assert plan.scope == OccurrenceScope("nth_execution", (1,))


class TestScope:
    def test_not_in_loop_pins_first_execution(self):
        cfg = InputConfig(fi_type="uniform_abs(1)", options=[],
                          loop_num=(7,), loop_mode="loop_iteration")
        spec = TargetSpec("f", "x", in_loop=False)
        assert derive_scope(cfg, spec) == OccurrenceScope("nth_execution", (1,))

    def test_in_loop_takes_config_mode(self):
        cfg = InputConfig(fi_type="uniform_abs(1)", options=[],
                          loop_num=(2, 4), loop_mode="loop_iteration")
        spec = TargetSpec("f", "x", in_loop=True)
        assert derive_scope(cfg, spec) == OccurrenceScope("loop_iteration", (2, 4))

    def test_scope_validation(self):
        with pytest.raises(TargetConfigError):
            OccurrenceScope("sometimes", (1,))
        with pytest.raises(TargetConfigError):
            OccurrenceScope("invocation", ())
        with pytest.raises(TargetConfigError):
            OccurrenceScope("invocation", (0,))


class TestLoops:
    def test_demo_loop_membership(self, demo_indexed):
        fn = demo_indexed.function("process")
        found = loop_blocks_for(fn, "5")
        assert found is not None
        header, body = found
        assert header == "2"
        assert body == frozenset({"2", "5", "14"})

    def test_blocks_outside_loop(self, demo_indexed):
        fn = demo_indexed.function("process")
        assert loop_blocks_for(fn, "0") is None
        assert loop_blocks_for(fn, "17") is None

    def test_straight_line_function(self, demo_indexed):
        fn = demo_indexed.function("main")
        assert loop_blocks_for(fn, "0") is None

    def test_innermost_selected(self):
        m = parse_module("""
define void @f(i1 %a, i1 %b) {
entry:
  br label %outer

outer:
  br label %inner

inner:
  br i1 %a, label %inner, label %tail

tail:
  br i1 %b, label %outer, label %done

done:
  ret void
}
""")
        fn = m.function("f")
        header, body = loop_blocks_for(fn, "inner")
        assert header == "inner"
        assert body == frozenset({"inner"})
        header, body = loop_blocks_for(fn, "tail")
        assert header == "outer"
        assert body == frozenset({"outer", "inner", "tail"})


class TestHooksAndArtifacts:
    def test_emit_and_reparse(self, demo_indexed, tmp_path):
        cfg = load_input_config(fixture_path("demo_input.yaml"))
        plan = build_plan(demo_indexed, cfg)
        paths = emit_artifacts(demo_indexed, fixture_path("demo.ll"),
                               out_dir=str(tmp_path), plan=plan, config=cfg)
        names = [p.rsplit("/", 1)[1] for p in paths]
        assert names == ["demo-lcfi_index.ll", "demo-lcfi_profiling.ll",
                         "demo-lcfi_fi.ll"]
        index_text = (tmp_path / "demo-lcfi_index.ll").read_text()
        reparsed = parse_module(index_text, source_name="demo.ll")
        assert reparsed == demo_indexed
        fi_text = (tmp_path / "demo-lcfi_fi.ll").read_text()
        assert "targets [15]" in fi_text
        assert "uniform_rel(0.5)" in fi_text
