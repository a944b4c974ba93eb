import os

import pytest

from lcfi.cli import main
from lcfi.traces import read_trace

from conftest import fixture_path

TRIPLE = "n[0]: 4.000000\nn[1]: 3.000000\nn[2]: 3.000000\n"
SEP = "+" * 24 + "\n"
GOLDEN_STDOUT = TRIPLE + SEP + TRIPLE + SEP + TRIPLE


def _mass4_input(tmp_path):
    """demo's injection config, drawing from a histogram of total mass 4."""
    (tmp_path / "h.txt").write_text("-1 0 1\n0 1 3\n")
    inp = tmp_path / "in.yaml"
    inp.write_text(open(fixture_path("demo_input.yaml")).read().replace(
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

    def test_missing_input_config(self, tmp_path, capsys):
        rc = main(["instrument", fixture_path("demo.ll"),
                   "--input", str(tmp_path / "nope.yaml")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_histogram_is_rejected(self, tmp_path, capsys):
        inp = tmp_path / "in.yaml"
        inp.write_text(open(fixture_path("demo_input.yaml")).read().replace(
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
        assert captured.err == "error: no function @main\n"

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
        inp.write_text(open(fixture_path("demo_input.yaml")).read().replace(
            "uniform_rel(0.5)", fi_type))
        cfg = tmp_path / "c.yaml"
        cfg.write_text(open(self._config(tmp_path)).read().replace(
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
        cfg.write_text(open(self._config(tmp_path, runs=5)).read().replace(
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
        ("config", "run: 50\n", "run: 50\n", "unknown key 'run' ignored"),
        ("config", "  stdn: '7'\n", "  stdn: '7'\n", "unknown key 'io.stdn' ignored"),
        ("config", "compare: {mod: numeric}\n", "compare: {mod: numeric}\n",
         "unknown key 'compare.mod' ignored"),
        ("config", "metrics:\n  - {name: n, pattern: 'n.0.: (\\S+)', sourc: golden}\n",
         ", sourc: golden", "unknown key 'metrics[0].sourc' ignored"),
    ], ids=["program", "input", "top", "io", "compare", "metrics"])
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
            files["program"].write_text(open(fixture_path("demo.ll")).read())
            files["input"].write_text(open(fixture_path("demo_input.yaml")).read())
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
                           open(os.path.join(root, f), "rb").read()
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
