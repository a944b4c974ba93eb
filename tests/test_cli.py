import json
import os
from pathlib import Path

import pytest

from lcfi.cli import main
from lcfi.traces import read_trace

from conftest import UNRUNNABLE, fixture_path, run_python

TRIPLE = "n[0]: 4.000000\nn[1]: 3.000000\nn[2]: 3.000000\n"
SEP = "+" * 24 + "\n"
GOLDEN_STDOUT = TRIPLE + SEP + TRIPLE + SEP + TRIPLE


def _mass4_input(tmp_path):
    """demo's injection config, drawing from a histogram of total mass 4."""
    (tmp_path / "h.txt").write_text("-1 0 1\n0 1 3\n")
    inp = tmp_path / "in.yaml"
    inp.write_text(Path(fixture_path("demo_input.yaml")).read_text().replace(
        "uniform_rel(0.5)", "empirical_rel(h.txt, 0.5)"))
    return inp


class TestInstrument:
    def test_emits_artifacts(self, tmp_path, capsys):
        rc = main(["instrument", fixture_path("demo.ll"),
                   "--input", fixture_path("demo_input.yaml"),
                   "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "targets: [15] scope: invocation k=[3]" in out
        for suffix in ("-lcfi_index.ll", "-lcfi_profiling.ll", "-lcfi_fi.ll"):
            path = str(tmp_path / ("demo" + suffix))
            assert path in out
            assert os.path.isfile(path)

    @pytest.mark.parametrize("old,new,message", [
        ("function_name: axpy", "function_name: nosuch", "no function @nosuch"),
        ("variable_name: x", "variable_name: nosuch", "axpy: no variable %nosuch"),
        ("function_name: axpy", "function_name: main",
         "main is the measurement harness, not a target"),
        ("variable_location: 1", "variable_location: 99",
         "axpy: %x has 2 accesses, location 99 does not exist"),
    ], ids=["function", "variable", "main", "location"])
    def test_target_errors_name_the_file_and_the_entry(self, tmp_path, capsys, old, new,
                                                       message):
        inp = tmp_path / "in.yaml"
        inp.write_text(Path(fixture_path("cg_input.yaml")).read_text().replace(old, new))
        rc = main(["instrument", fixture_path("cg.ll"), "--input", str(inp),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {inp}: option[0]: {message}\n"

    def test_disagreeing_scopes_name_the_second_entry(self, tmp_path, capsys):
        inp = tmp_path / "in.yaml"
        inp.write_text(Path(fixture_path("cg_input.yaml")).read_text().replace(
            "variable_num: 1", "variable_num: 2")
            + "  - {function_name: axpy, variable_name: y}\n")
        rc = main(["instrument", fixture_path("cg.ll"), "--input", str(inp)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {inp}: option[1]: disagrees with option[0] on occurrence scope; "
            "split them into separate configs\n")

    def test_missing_input_config(self, tmp_path, capsys):
        rc = main(["instrument", fixture_path("demo.ll"),
                   "--input", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_histogram_is_rejected(self, tmp_path, capsys):
        inp = tmp_path / "in.yaml"
        inp.write_text(Path(fixture_path("demo_input.yaml")).read_text().replace(
            "uniform_rel(0.5)", "empirical_abs(nope.txt, 0.1)"))
        rc = main(["instrument", fixture_path("demo.ll"), "--input", str(inp),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_invalid_program(self, tmp_path, capsys):
        bad = tmp_path / "bad.ll"
        bad.write_text("define i32 @main() {\n  br label %ghost\n}\n")
        rc = main(["instrument", str(bad),
                   "--input", fixture_path("demo_input.yaml")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "ghost" in captured.err


class TestProfile:
    def test_golden_run(self, tmp_path, capsys):
        trace_out = tmp_path / "golden.txt"
        rc = main(["profile", fixture_path("demo.ll"),
                   "--file", "in.txt=" + fixture_path("in.txt"),
                   "--trace-out", str(trace_out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out == GOLDEN_STDOUT
        assert "return value: 0" in captured.err
        recs = read_trace(str(trace_out))
        assert any(r.index == 15 for r in recs)

    def test_trap_exits_nonzero(self, capsys):
        rc = main(["profile", fixture_path("crasher.ll")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "run did not complete: out_of_bounds" in captured.err

    def test_read_on_a_path_without_definition_is_rejected(self, tmp_path, capsys):
        prog = tmp_path / "skip.ll"
        prog.write_text("""define i32 @main() {
entry:
  br i1 false, label %a, label %b

a:
  %x = add i32 1, 2
  br label %b

b:
  %y = add i32 %x, 1
  ret i32 %y
}
""")
        rc = main(["profile", str(prog)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: {prog}: line 10: register %x is not defined on every path "
            "to its use in @main:%b\n")

    @pytest.mark.parametrize("text,message", [
        ("define i32 @main() {\nentry:\n  %a = phi i32 [ 1, %entry ]\n"
         "  ret i32 %a\n}\n",
         "line 3: phi in entry block in @main:%entry"),
        ("define i32 @main() {\nentry:\n  br label %next\n\nother:\n"
         "  br label %next\n\nnext:\n  %a = phi i32 [ 1, %other ]\n"
         "  ret i32 %a\n}\n",
         "line 9: phi has no incoming edge from %entry in @main:%next"),
        ("define i32 @start() {\n  ret i32 0\n}\n", "no function @main"),
        ("define i32 @main() {\n  %a = bitcast i32 1 to i64\n  ret i32 0\n}\n",
         "bitcast i32 to i64 unsupported"),
    ], ids=["phi_in_entry", "missing_incoming_edge", "no_main", "bitcast"])
    def test_unrunnable_program_is_one_error_line(self, tmp_path, capsys, text,
                                                  message):
        prog = tmp_path / "bad.ll"
        prog.write_text(text)
        rc = main(["profile", str(prog)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_must_be_positive(self, capsys, budget):
        rc = main(["profile", fixture_path("demo.ll"), "--budget", budget,
                   "--file", "in.txt=" + fixture_path("in.txt")])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--budget must be a positive integer" in captured.err

    @pytest.mark.parametrize("command", ["profile", "inject"])
    @pytest.mark.parametrize("entry,message", [
        ("in.txt", "--file expects name=path, got 'in.txt'"),
        ("in.txt={missing}", "--file in.txt={missing}: [Errno 2] No such file"),
    ], ids=["no_equals", "unreadable"])
    def test_bad_file_entry_is_named(self, tmp_path, capsys, command, entry, message):
        missing = tmp_path / "nope.txt"
        args = [command, fixture_path("demo.ll"), "--file", entry.format(missing=missing)]
        if command == "inject":
            args += ["--input", fixture_path("demo_input.yaml")]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message.format(missing=missing))
        assert captured.err.count("\n") == 1


class TestInject:
    def test_seeded_run(self, capsys):
        rc = main(["inject", fixture_path("demo.ll"),
                   "--input", fixture_path("demo_input.yaml"),
                   "--seed", "77",
                   "--file", "in.txt=" + fixture_path("in.txt")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "status: ok" in captured.err
        assert "activations: 3" in captured.err
        assert "seed: 77" in captured.err
        # first two invocations untouched, third carries the fault
        assert captured.out != GOLDEN_STDOUT
        assert captured.out.startswith(TRIPLE + SEP + TRIPLE + SEP)

    @pytest.mark.parametrize("program,config", [("demo", "demo"), ("cg", "cg_loop")])
    def test_a_report_rows_seed_replays_its_trace(self, tmp_path, capsys, program,
                                                  config):
        """inject at the seed a campaign's report gives a run, from scratch,
        writes that run's trace file byte for byte; the campaign ran it from
        the golden run's snapshot."""
        from lcfi.campaign import CampaignConfig, run_campaign
        out = tmp_path / "campaign"
        run_campaign(CampaignConfig(program=fixture_path(f"{program}.ll"),
                                    input=fixture_path(f"{config}_input.yaml"), runs=3,
                                    output_dir=str(out), files={"in.txt": "4 3 3\n"}))
        rows = json.loads((out / "report.json").read_text())["run_details"]
        assert len({row["seed"] for row in rows}) == 3
        assert any(row["activations"] for row in rows)
        for row in rows:
            replay = tmp_path / f"replay.{row['run']}.txt"
            assert main(["inject", fixture_path(f"{program}.ll"),
                         "--input", fixture_path(f"{config}_input.yaml"),
                         "--seed", str(row["seed"]),
                         "--file", "in.txt=" + fixture_path("in.txt"),
                         "--trace-out", str(replay)]) == 0
            written = (out / "llfi" / "llfi_stat_output"
                       / f"llfi.stat.trace.{row['run']}-0.txt").read_bytes()
            assert replay.read_bytes() == written and written

    def test_seed_defaults_to_config(self, capsys):
        rc = main(["inject", fixture_path("demo.ll"),
                   "--input", fixture_path("demo_input.yaml"),
                   "--file", "in.txt=" + fixture_path("in.txt")])
        assert rc == 0
        assert "seed: 2025" in capsys.readouterr().err

    def test_histogram_normalization_warned_once(self, tmp_path, capsys):
        inp = _mass4_input(tmp_path)
        rc = main(["inject", fixture_path("demo.ll"), "--input", str(inp),
                   "--file", "in.txt=" + fixture_path("in.txt")])
        err = capsys.readouterr().err
        assert rc == 0
        assert err.startswith(f"{inp}: warning: histogram mass 4 normalized to 1\n")
        assert err.count("normalized") == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_must_be_positive(self, capsys, budget):
        rc = main(["inject", fixture_path("demo.ll"),
                   "--input", fixture_path("demo_input.yaml"),
                   "--budget", budget,
                   "--file", "in.txt=" + fixture_path("in.txt")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "status:" not in captured.err
        assert "--budget must be a positive integer" in captured.err


class TestCampaign:
    def _config(self, tmp_path, runs=3):
        cfg = tmp_path / "campaign.yaml"
        cfg.write_text(
            f"program: {fixture_path('demo.ll')}\n"
            f"input: {fixture_path('demo_input.yaml')}\n"
            f"runs: {runs}\n"
            f"output_dir: {tmp_path / 'out'}\n"
            "io:\n"
            f"  files:\n    in.txt: {{from: {fixture_path('in.txt')}}}\n")
        return str(cfg)

    def test_end_to_end(self, tmp_path, capsys):
        rc = main(["campaign", "--config", self._config(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 runs ->" in out
        assert "sdc: 3" in out
        for line in out.splitlines()[1:]:
            assert os.path.isfile(line)

    def test_golden_failure_exit_code(self, tmp_path, capsys):
        prog = tmp_path / "trap.ll"
        prog.write_text(
            "define i32 @f(i32* %p) {\n"
            "  %v = load i32, i32* %p\n  ret i32 %v\n}\n"
            "define i32 @main() {\n"
            "  %s = alloca i32\n  store i32 5, i32* %s\n"
            "  %r = call i32 @f(i32* %s)\n"
            "  %d = sdiv i32 1, 0\n  ret i32 %d\n}\n")
        inp = tmp_path / "in.yaml"
        inp.write_text("fi_type: uniform_abs(1.0)\noption:\n"
                       "  - function_name: f\n    variable_name: p\n"
                       "    variable_location: 1\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"program: {prog}\ninput: {inp}\n"
                       f"output_dir: {tmp_path / 'out'}\n")
        rc = main(["campaign", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "golden run did not complete" in captured.err

    def test_program_without_main_exit_code(self, tmp_path, capsys):
        prog = tmp_path / "nomain.ll"
        prog.write_text("define i32 @f(i32* %p) {\n"
                        "  %v = load i32, i32* %p\n  ret i32 %v\n}\n")
        inp = tmp_path / "in.yaml"
        inp.write_text("fi_type: uniform_abs(1.0)\noption:\n"
                       "  - function_name: f\n    variable_name: p\n"
                       "    variable_location: 1\n")
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"program: {prog}\ninput: {inp}\n"
                       f"output_dir: {tmp_path / 'out'}\n")
        rc = main(["campaign", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 4
        assert captured.err == f"error: {prog}: no function @main\n"
        assert not os.path.exists(tmp_path / "out")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"program: {fixture_path('demo.ll')}\n")
        rc = main(["campaign", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 4
        assert "input is required" in captured.err

    def test_jobs_override(self, tmp_path, capsys):
        rc = main(["campaign", "--config", self._config(tmp_path, runs=2),
                   "--jobs", "2"])
        assert rc == 0
        assert "2 runs ->" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_override_must_be_positive(self, tmp_path, capsys, jobs):
        rc = main(["campaign", "--config", self._config(tmp_path),
                   "--jobs", jobs])
        assert rc == 4
        assert "--jobs must be a positive integer" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("fi_type", ["empirical_abs(nope.txt, 0.1)"])
    def test_missing_histogram_fails_before_anything_is_written(self, tmp_path, capsys,
                                                                fi_type):
        inp = tmp_path / "in.yaml"
        inp.write_text(Path(fixture_path("demo_input.yaml")).read_text().replace(
            "uniform_rel(0.5)", fi_type))
        cfg = tmp_path / "c.yaml"
        cfg.write_text(Path(self._config(tmp_path)).read_text().replace(
            fixture_path("demo_input.yaml"), str(inp)))
        rc = main(["campaign", "--config", str(cfg)])
        assert rc == 4
        assert "nope" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_histogram_read_once_and_warned_once(self, tmp_path, capsys, monkeypatch):
        import lcfi.faults as faults
        load, paths = faults.load_empirical, []
        monkeypatch.setattr(faults, "load_empirical",
                            lambda path: paths.append(path) or load(path))
        inp = _mass4_input(tmp_path)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(Path(self._config(tmp_path, runs=5)).read_text().replace(
            fixture_path("demo_input.yaml"), str(inp)))
        rc = main(["campaign", "--config", str(cfg)])
        assert rc == 0
        assert capsys.readouterr().err == (
            f"{inp}: warning: histogram mass 4 normalized to 1\n")
        assert paths == [str(tmp_path / "h.txt")]
        for name in ("report.txt", "report.json", "report.csv"):
            assert "normalized" not in (tmp_path / "out" / name).read_text()

    @pytest.mark.parametrize("where,extra,ignored,warning", [
        ("program", "!0 = !{i32 7}\n", "!0 = !{i32 7}\n", "line 79: metadata stripped"),
        ("input", "bogus_key: 1\n", "bogus_key: 1\n", "unknown key 'bogus_key' ignored"),
        ("input", "    in_lop: true\n", "    in_lop: true\n",
         "unknown key 'option[0].in_lop' ignored"),
        ("config", "run: 50\n", "run: 50\n", "unknown key 'run' ignored"),
        ("config", "  stdn: '7'\n", "  stdn: '7'\n", "unknown key 'io.stdn' ignored"),
        ("config", "compare: {mod: numeric}\n", "compare: {mod: numeric}\n",
         "unknown key 'compare.mod' ignored"),
        ("config", "metrics:\n  - {name: n, pattern: 'n.0.: (\\S+)', sourc: golden}\n",
         ", sourc: golden", "unknown key 'metrics[0].sourc' ignored"),
    ], ids=["program", "input", "option", "top", "io", "compare", "metrics"])
    def test_what_a_campaign_ignores_is_warned_on_stderr(self, tmp_path, capsys, where,
                                                         extra, ignored, warning):
        """The warning names its file, and the artifact tree, reports
        included, equals that of the campaign without the ignored text."""
        trees = {}
        for name in ("plain", "warned"):
            d = tmp_path / name
            files = {"program": d / "demo.ll", "input": d / "in.yaml",
                     "config": d / "c.yaml"}
            d.mkdir()
            files["program"].write_text(Path(fixture_path("demo.ll")).read_text())
            files["input"].write_text(Path(fixture_path("demo_input.yaml")).read_text())
            files["config"].write_text(
                "program: demo.ll\ninput: in.yaml\nruns: 2\noutput_dir: out\n"
                f"io:\n  files:\n    in.txt: {{from: {fixture_path('in.txt')}}}\n")
            with open(files[where], "a") as fh:
                fh.write(extra if name == "warned" else extra.replace(ignored, ""))
            rc = main(["campaign", "--config", str(files["config"])])
            err = capsys.readouterr().err
            assert rc == 0
            assert err == (f"{files[where]}: warning: {warning}\n"
                           if name == "warned" else "")
            trees[name] = {os.path.relpath(os.path.join(root, f), d / "out"):
                           Path(root, f).read_bytes()
                           for root, _dirs, names in os.walk(d / "out") for f in names}
        assert trees["warned"] == trees["plain"]
        assert {"report.txt", "report.json", "report.csv"} <= set(trees["plain"])


class TestTraceDiff:
    def test_identical(self, capsys):
        rc = main(["trace", "diff", fixture_path("trace_golden.txt"),
                   fixture_path("trace_golden.txt")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "traces are identical" in captured.out

    def test_divergence(self, capsys):
        rc = main(["trace", "diff", fixture_path("trace_golden.txt"),
                   fixture_path("trace_faulty.txt")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "classification: control_flow" in captured.out
        assert "first divergence:" in captured.out

    def test_verbose_lists_each(self, capsys):
        main(["trace", "diff", "-v", fixture_path("trace_golden.txt"),
              fixture_path("trace_faulty.txt")])
        out = capsys.readouterr().out
        assert out.count("\n  ") >= 2

    def test_malformed_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a trace record\n")
        rc = main(["trace", "diff", str(bad), str(bad)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["trace", "diff", "{bad}", "{good}"],
        ["trace", "union", "{good}", "{bad}"],
        ["trace", "dot", "{good}", "{bad}", "--program", fixture_path("demo.ll")],
    ])
    def test_non_utf8_trace(self, tmp_path, capsys, command):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"ID: 1    OPCode: load   Value: 00000000\n\xff\xfe\n")
        good = fixture_path("trace_golden.txt")
        rc = main([a.format(bad=bad, good=good) for a in command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {bad}: not UTF-8 text" in err

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["trace", "diff", str(tmp_path / "a.txt"),
                   str(tmp_path / "b.txt")])
        assert rc == 2


# stdout of each trace command on the fixture pair, as recorded before traces
# were read into columns
FIXTURE_PAIR_STDOUT = {
    "diff": (1, """\
classification: control_flow
first divergence: value divergence at ID 18 (load): 4010000000000000 vs 4014e8d25119f5e3
value divergences: 1  control-flow divergences: 1
  value divergence at ID 18 (load): 4010000000000000 vs 4014e8d25119f5e3
  control-flow divergence: ID 19 (call) only in golden trace
"""),
    "union": (0, """\
 index opcode    total  t0  t1  distinct values
     8 load          2  1  1  1
    15 load          2  1  1  1
    16 store         2  1  1  1
    17 load          2  1  1  1
    18 load          2  1  1  2
    19 call          1  1  0  1
    21 load          2  1  1  1
    22 add           2  1  1  1
"""),
    "dot": (0, """\
digraph "demo.ll" {
  node [shape=box];
  n18 [label="18 / load / 4010000000000000->4014e8d25119f5e3"];
}
"""),
}


@pytest.mark.parametrize("command", sorted(FIXTURE_PAIR_STDOUT))
def test_trace_commands_stdout_pinned(capsys, command):
    extra = {"diff": ["-v"], "union": [], "dot": ["--program", fixture_path("demo.ll")]}
    rc = main(["trace", command, fixture_path("trace_golden.txt"),
               fixture_path("trace_faulty.txt"), *extra[command]])
    assert (rc, capsys.readouterr().out) == FIXTURE_PAIR_STDOUT[command]


def test_trace_diff_and_union_load_only_the_trace_module():
    """`lcfi trace diff` and `lcfi trace union` import lcfi.traces alone: the
    IR, the interpreter, numpy and yaml would quadruple their start-up."""
    code = ("import sys\n"
            "from lcfi.cli import main\n"
            "codes = [main(['trace', c, sys.argv[1], sys.argv[2]]) for c in ('diff', 'union')]\n"
            "print(codes, sorted(m for m in sys.modules\n"
            "                    if m.startswith(('lcfi', 'numpy', 'yaml'))))\n")
    out = run_python(code, fixture_path("trace_golden.txt"), fixture_path("trace_faulty.txt"))
    assert out.splitlines()[-1] == "[1, 0] ['lcfi', 'lcfi.cli', 'lcfi.traces']"


class TestTraceUnion:
    def test_union_table(self, capsys):
        rc = main(["trace", "union", fixture_path("trace_golden.txt"),
                   fixture_path("trace_faulty.txt")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "distinct values" in out.splitlines()[0]
        assert any(line.split()[:1] == ["18"] for line in out.splitlines()[1:])


class TestTraceDot:
    def test_dot_to_stdout(self, capsys):
        rc = main(["trace", "dot", fixture_path("trace_golden.txt"),
                   fixture_path("trace_faulty.txt"),
                   "--program", fixture_path("demo.ll")])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith('digraph "demo.ll"')

    def test_dot_to_file(self, tmp_path, capsys):
        dest = tmp_path / "g.dot"
        rc = main(["trace", "dot", fixture_path("trace_golden.txt"),
                   fixture_path("trace_faulty.txt"),
                   "--program", fixture_path("demo.ll"),
                   "--out", str(dest)])
        assert rc == 0
        assert str(dest) in capsys.readouterr().out
        assert dest.read_text().startswith("digraph")


def test_no_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# Programs that would give a register a value that is not of its type, and
# the line of the one diagnostic each gets, in @main's entry block.
ILL_KINDED = {
    "sqrt_declared_i32": ("declare double @sqrt(double)\ndefine i32 @main() {\nentry:\n"
                          "  %x = call i32 @sqrt(double 2.0)\n  ret i32 0\n}\n", 4),
    "free_declared_i64": ("declare i8* @malloc(i64)\ndeclare i64 @free(i8*)\n"
                          "define i32 @main() {\nentry:\n"
                          "  %p = call i8* @malloc(i64 8)\n  %r = call i64 @free(i8* %p)\n"
                          "  %s = add i64 %r, 1\n  ret i32 0\n}\n", 6),
    "double_for_i32_parameter": ("define i32 @f(i32 %x) {\nentry:\n  ret i32 %x\n}\n"
                                 "define i32 @main() {\nentry:\n"
                                 "  %r = call i32 @f(double 2.5)\n  ret i32 %r\n}\n", 7),
    "i32_call_of_double_function": ("define double @g() {\nentry:\n  ret double 1.5\n}\n"
                                    "define i32 @main() {\nentry:\n"
                                    "  %r = call i32 @g()\n  ret i32 %r\n}\n", 7),
    "ret_double_in_i32_function": ("define i32 @main() {\nentry:\n  ret double 2.5\n}\n", 3),
    "add_i32_of_a_double": ("define i32 @main() {\nentry:\n  %x = fadd double 1.0, 2.0\n"
                            "  %y = add i32 %x, 1\n  ret i32 %y\n}\n", 4),
    "select_of_i8_and_i32": ("define i32 @main() {\nentry:\n  %p = alloca i8\n"
                             "  %x = select i1 true, i8 1, i32 300\n"
                             "  store i8 %x, i8* %p\n  ret i32 0\n}\n", 4),
    "select_of_i32_and_double": ("define i32 @main() {\nentry:\n"
                                 "  %x = select i1 false, i32 1, double 2.5\n"
                                 "  ret i32 %x\n}\n", 3),
}


class TestIllKindedPrograms:
    """Each is refused before it runs, with one error line that names the
    line and the function, and no traceback."""

    @pytest.mark.parametrize("command,code", [("profile", 2), ("campaign", 4),
                                              ("instrument", 2)])
    @pytest.mark.parametrize("name", list(ILL_KINDED))
    def test_refused_with_one_error_line(self, tmp_path, capsys, name, command, code):
        text, line = ILL_KINDED[name]
        prog = tmp_path / "bad.ll"
        prog.write_text(text)
        args = ["profile", str(prog)]
        if command == "instrument":
            args = ["instrument", str(prog), "--input", fixture_path("demo_input.yaml"),
                    "--out", str(tmp_path / "out")]
        if command == "campaign":
            cfg = tmp_path / "c.yaml"
            cfg.write_text(f"program: {prog}\ninput: {fixture_path('demo_input.yaml')}\n"
                           f"output_dir: {tmp_path / 'out'}\n")
            args = ["campaign", "--config", str(cfg)]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == code and captured.out == ""
        assert "Traceback" not in captured.err
        [error] = captured.err.splitlines()
        assert error.startswith(f"error: {prog}: line {line}: ")
        assert error.endswith(" in @main:%entry")

    def test_an_f32_constant_past_the_range_profiles_as_infinity(self, tmp_path, capsys):
        prog = tmp_path / "inf.ll"
        prog.write_text("define i32 @main() {\nentry:\n"
                        "  %x = select i1 true, float 1.0e300, float 0.0\n  ret i32 0\n}\n")
        rc = main(["profile", str(prog), "--trace-out", str(tmp_path / "t.txt")])
        assert rc == 0 and "Traceback" not in capsys.readouterr().err
        assert [r.value_hex for r in read_trace(str(tmp_path / "t.txt"))] == ["7f800000"]


class TestUnrunnablePrograms:
    """A program whose fault shows in its text is refused when it loads:
    one error line naming the file, and the line and function where the
    problem has them, with no traceback and no campaign output."""

    @pytest.mark.parametrize("command,code", [("profile", 2), ("campaign", 4)])
    @pytest.mark.parametrize("name", list(UNRUNNABLE))
    def test_refused_at_load(self, tmp_path, capsys, name, command, code):
        text, error = UNRUNNABLE[name]
        prog = tmp_path / "bad.ll"
        prog.write_text(text)
        args = ["profile", str(prog)]
        if command == "campaign":
            cfg = tmp_path / "c.yaml"
            cfg.write_text(f"program: {prog}\ninput: {fixture_path('demo_input.yaml')}\n"
                           f"output_dir: {tmp_path / 'out'}\n")
            args = ["campaign", "--config", str(cfg)]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == code and captured.out == ""
        assert captured.err == f"error: {prog}: {error}\n"
        assert not os.path.exists(tmp_path / "out")
