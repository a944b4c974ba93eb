import json
import math
import os
import re

import pytest

from lcfi.campaign import (CampaignConfig, CampaignResult, CompareSpec,
                           ConfigError, GoldenRunFailed, MetricSpec,
                           MetricValueError, NonPositiveForLog, OUTCOMES,
                           RunResult, _metric_summary, classify_outcome,
                           extract_metric, load_campaign_config,
                           outputs_match, parse_campaign_config, run_campaign)
from lcfi.vm.machine import RunOutcome, TrapInfo

from conftest import fixture_path


class TestConfigParsing:
    def _minimal(self, **extra):
        data = {"program": "demo.ll", "input": "demo_input.yaml"}
        data.update(extra)
        return data

    def test_defaults_and_path_resolution(self):
        cfg = parse_campaign_config(self._minimal(), base_dir="/somewhere")
        assert cfg.program == "/somewhere/demo.ll"
        assert cfg.input == "/somewhere/demo_input.yaml"
        assert cfg.runs == 10
        assert cfg.jobs == 1
        assert cfg.seed is None
        assert cfg.report_formats == ("txt", "json", "csv")
        assert cfg.compare.mode == "exact"
        assert cfg.metrics == []

    def test_absolute_paths_kept(self):
        cfg = parse_campaign_config(
            {"program": "/a/p.ll", "input": "/a/i.yaml"}, base_dir="/elsewhere")
        assert cfg.program == "/a/p.ll"

    def test_io_block(self, tmp_path):
        src = tmp_path / "seed.txt"
        src.write_text("7 8 9\n")
        cfg = parse_campaign_config(self._minimal(io={
            "stdin": "1 2\n",
            "files": {"in.txt": "literal\n", "big.txt": {"from": str(src)}},
        }), base_dir=str(tmp_path))
        assert cfg.stdin_text == "1 2\n"
        assert cfg.files == {"in.txt": "literal\n", "big.txt": "7 8 9\n"}

    def test_io_from_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="io.files"):
            parse_campaign_config(self._minimal(io={
                "files": {"x": {"from": "nope.txt"}}}), base_dir=str(tmp_path))

    def test_compare_block(self):
        cfg = parse_campaign_config(self._minimal(
            compare={"mode": "numeric", "rel_tol": 1e-6, "abs_tol": 1e-9}))
        assert cfg.compare == CompareSpec("numeric", 1e-6, 1e-9)

    def test_metrics_block(self):
        cfg = parse_campaign_config(self._minimal(metrics=[
            {"name": "iters", "pattern": r"Iterations = (\d+)",
             "source": "golden"},
            {"name": "rf", "pattern": r"residual: (\S+)",
             "transform": "neg_log10"},
        ]))
        assert cfg.metrics[0].name == "iters"
        assert cfg.metrics[0].source == "golden"
        assert cfg.metrics[1].transform == "neg_log10"
        assert cfg.metrics[1].source == "stdout"

    @pytest.mark.parametrize("metrics", [None, []])
    def test_no_metrics(self, metrics):
        """An empty `metrics:` key, or an empty list, asks for no metrics."""
        assert parse_campaign_config(self._minimal(metrics=metrics)).metrics == []

    @pytest.mark.parametrize("mutate,fragment", [
        ({"program": None}, "program is required"),
        ({"input": None}, "input is required"),
        ({"runs": 0}, "runs"),
        ({"runs": True}, "runs"),
        ({"seed": "x"}, "seed"),
        ({"budget": 0}, "budget"),
        ({"jobs": 0}, "jobs"),
        ({"report_formats": []}, "report_formats"),
        ({"report_formats": ["pdf"]}, "unknown report format"),
        ({"io": "nope"}, "io must be a mapping"),
        ({"compare": {"mode": "fuzzy"}}, "compare.mode"),
        ({"metrics": [{"name": "m"}]}, "needs name and pattern"),
        ({"metrics": [{"name": "m", "pattern": "no group"}]}, "capture group"),
        ({"metrics": [{"name": "m", "pattern": "(a)(b)"}]}, "capture group"),
        ({"metrics": [{"name": "m", "pattern": "(unclosed"}]}, "pattern"),
        ({"metrics": [{"name": "m", "pattern": "(x)", "transform": "log"}]},
         "transform"),
        ({"metrics": [{"name": "m", "pattern": "(x)", "source": "stderr"}]},
         "source"),
        ({"budget": True}, "budget"),
        ({"jobs": True}, "jobs"),
        ({"compare": {"rel_tol": "tight"}}, "compare.rel_tol"),
        ({"compare": {"abs_tol": [1]}}, "compare.abs_tol"),
        ({"compare": {"abs_tol": -1.0}}, "compare.abs_tol"),
        ({"compare": {"rel_tol": True}}, "compare.rel_tol"),
        ({"metrics": "abc"}, "<config>: metrics must be a list"),
        ({"metrics": {"name": "m", "pattern": "(x)"}}, "<config>: metrics must be a list"),
        ({"metrics": {}}, "<config>: metrics must be a list"),
        ({"report_formats": ["txt", "txt"]}, "<config>: report format 'txt' given twice"),
        ({"report_formats": ["csv", "json", "csv"]}, "report format 'csv' given twice"),
        ({"io": {"stdin": None}}, "<config>: io.stdin must not be null"),
        ({"io": {"workdir": None}}, "<config>: io.workdir must not be null"),
        ({"io": {"files": {"in.txt": None}}}, "io.files['in.txt'] must not be null"),
        ({"io": {"files": {"in.txt": {"from": None}}}},
         "io.files['in.txt'].from must not be null"),
        ({"metrics": [{"name": None, "pattern": "(x)"}]}, "metrics[0].name must not be null"),
        ({"metrics": [{"name": "m", "pattern": None}]},
         "metrics[0].pattern must not be null"),
    ])
    def test_rejected_configs(self, mutate, fragment):
        data = self._minimal()
        for k, v in mutate.items():
            if v is None:
                data.pop(k, None)
            else:
                data[k] = v
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            parse_campaign_config(data)

    @pytest.mark.parametrize("key", ["program", "input", "output_dir"])
    def test_null_path_rejected(self, key):
        with pytest.raises(ConfigError, match=re.escape(f"<config>: {key} must not be null")):
            parse_campaign_config({**self._minimal(), key: None})

    def test_numbers_still_convert_to_text(self):
        cfg = parse_campaign_config(self._minimal(io={"stdin": 7, "files": {"n": 1.5}}))
        assert (cfg.stdin_text, cfg.files) == ("7", {"n": "1.5"})

    def test_load_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_campaign_config("/nonexistent/c.yaml")

    def test_load_bad_yaml(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("program: [unclosed\n")
        with pytest.raises(ConfigError):
            load_campaign_config(str(p))

    def test_load_resolves_relative_to_config(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("program: prog.ll\ninput: in.yaml\n")
        cfg = load_campaign_config(str(p))
        assert cfg.program == str(tmp_path / "prog.ll")


class TestOutputsMatch:
    def test_exact(self):
        spec = CompareSpec("exact")
        assert outputs_match("abc\n", "abc\n", spec)
        assert not outputs_match("abc\n", "abd\n", spec)

    def test_none_mode(self):
        assert outputs_match("a", "completely different", CompareSpec("none"))

    def test_numeric_within_tolerance(self):
        spec = CompareSpec("numeric", rel_tol=1e-9)
        assert outputs_match("x = 1.0\n", "x = 1.0000000001\n", spec)
        assert not outputs_match("x = 1.0\n", "x = 1.001\n", spec)

    def test_numeric_text_skeleton_must_match(self):
        spec = CompareSpec("numeric", rel_tol=1e-2)
        assert not outputs_match("x = 1.0", "y = 1.0", spec)
        assert not outputs_match("x = 1.0", "x = 1.0 1.0", spec)

    def test_numeric_scientific_notation(self):
        spec = CompareSpec("numeric", rel_tol=1e-6)
        assert outputs_match("r 1.5e-3", "r 0.0015000001", spec)


def _ok(stdout="out", activations=0):
    return RunOutcome(status="ok", stdout=stdout, activation_count=activations)


class TestClassification:
    GOLDEN = _ok("good\n")

    def test_crash(self):
        run = RunOutcome(status="trapped", trap=TrapInfo("out_of_bounds", ""))
        assert classify_outcome(self.GOLDEN, run, CompareSpec()) == "crash"

    def test_hang(self):
        run = RunOutcome(status="budget_exhausted")
        assert classify_outcome(self.GOLDEN, run, CompareSpec()) == "hang"

    def test_sdc(self):
        assert classify_outcome(self.GOLDEN, _ok("bad\n", activations=1),
                                CompareSpec()) == "sdc"

    def test_benign_masked(self):
        assert classify_outcome(self.GOLDEN, _ok("good\n", activations=2),
                                CompareSpec()) == "benign_masked"

    def test_benign_not_activated(self):
        assert classify_outcome(self.GOLDEN, _ok("good\n", activations=0),
                                CompareSpec()) == "benign_not_activated"

    def test_compare_mode_shifts_sdc(self):
        golden = _ok("x = 1.0\n")
        run = _ok("x = 1.0000000001\n", activations=1)
        assert classify_outcome(golden, run, CompareSpec("exact")) == "sdc"
        assert classify_outcome(golden, run,
                                CompareSpec("numeric")) == "benign_masked"


class TestExtractMetric:
    def test_identity(self):
        spec = MetricSpec("it", re.compile(r"Iterations = (\d+)"))
        assert extract_metric("done, Iterations = 7, bye", spec) == 7.0

    def test_miss_is_none(self):
        spec = MetricSpec("it", re.compile(r"Iterations = (\d+)"))
        assert extract_metric("nothing here", spec) is None

    def test_unparseable_group_is_none(self):
        spec = MetricSpec("w", re.compile(r"val (\S+)"))
        assert extract_metric("val abc", spec) is None

    def test_group_outside_the_match_is_none(self):
        spec = MetricSpec("rf", re.compile(r"residual: (\d\S*)?"))
        assert extract_metric("final residual: n/a", spec) is None

    def test_neg_log10(self):
        spec = MetricSpec("rf", re.compile(r"residual: (\S+)"),
                          transform="neg_log10")
        got = extract_metric("final residual: 1e-8", spec)
        assert got == pytest.approx(8.0, abs=1e-9)

    @pytest.mark.parametrize("text", ["residual: 0", "residual: -1e-3"])
    def test_neg_log10_rejects_non_positive(self, text):
        spec = MetricSpec("rf", re.compile(r"residual: (\S+)"),
                          transform="neg_log10")
        with pytest.raises(NonPositiveForLog):
            extract_metric(text, spec)

    @pytest.mark.parametrize("transform", ["identity", "neg_log10"])
    @pytest.mark.parametrize("text, shown", [("r = nan", "nan"), ("r = NaN", "nan"),
                                             ("r = inf", "inf"), ("r = -Infinity", "-inf")])
    def test_non_finite_is_rejected(self, text, shown, transform):
        spec = MetricSpec("r", re.compile(r"r = (\S+)"), transform=transform)
        with pytest.raises(MetricValueError,
                           match=f"^metric r: non-finite value {re.escape(shown)}$"):
            extract_metric(text, spec)

    def test_non_finite_values_leave_report_json_valid(self, tmp_path):
        """The golden run prints r = nan and both faulted runs (seed 0) print
        r = -inf: the values are left out with a note, and report.json holds
        no NaN or Infinity constant."""
        (tmp_path / "nanr.ll").write_text(NANR_LL)
        (tmp_path / "nanr_input.yaml").write_text(
            "fi_type: uniform_abs(1.0)\noption:\n"
            "  - function_name: ratio\n    variable_name: x\n")
        pattern = re.compile(r"r = (\S+)")
        result = run_campaign(CampaignConfig(
            program=str(tmp_path / "nanr.ll"), input=str(tmp_path / "nanr_input.yaml"),
            runs=2, output_dir=str(tmp_path / "out"),
            metrics=[MetricSpec("r", pattern), MetricSpec("g", pattern, source="golden")]))

        def no_constant(name):
            raise ValueError(f"report.json holds {name}")

        with open(tmp_path / "out" / "report.json") as fh:
            doc = json.load(fh, parse_constant=no_constant)
        assert doc["metrics_summary"] == {}
        assert doc["golden_notes"] == ["metric g: non-finite value nan"]
        assert [r["notes"] for r in doc["run_details"]] == \
            [["metric r: non-finite value -inf"]] * 2
        assert all(r.metrics == {} for r in result.runs)

    def test_summary_mean_of_large_values_is_finite(self):
        runs = [RunResult(i, 0, "sdc", 1, 0, 10, metrics={"r": 1.5e308}) for i in range(3)]
        assert _metric_summary(runs)["r"]["mean"] == pytest.approx(1.5e308)


NANR_LL = """\
; nanr: prints r = x / 0.0, nan for the golden x = 0 and an infinity once x is faulted
source_filename = "nanr.ll"

@.str = private unnamed_addr constant [8 x i8] c"r = %f\\0A\\00", align 1

define double @ratio() {
  %x = alloca double, align 8
  store double 0.000000e+00, double* %x, align 8
  %1 = load double* %x, align 8
  %2 = fdiv double %1, 0.000000e+00
  ret double %2
}

define i32 @main() {
  %1 = call double @ratio()
  %2 = call i32 (i8*, ...)* @printf(i8* getelementptr inbounds ([8 x i8]* @.str, i32 0, i32 0), double %1)
  ret i32 0
}

declare i32 @printf(i8*, ...)
"""


@pytest.fixture(scope="module")
def demo_campaign(tmp_path_factory):
    out = tmp_path_factory.mktemp("campaign")
    cfg = CampaignConfig(
        program=fixture_path("demo.ll"),
        input=fixture_path("demo_input.yaml"),
        runs=10,
        output_dir=str(out),
        files={"in.txt": "4 3 3\n"},
        metrics=[
            MetricSpec("first_val", re.compile(r"n\[0\]: (\d+\.\d+)")),
            MetricSpec("golden_first", re.compile(r"n\[0\]: (\d+\.\d+)"),
                       source="golden"),
        ],
    )
    return run_campaign(cfg)


class TestDemoCampaign:
    def test_every_run_is_sdc(self, demo_campaign):
        assert demo_campaign.counts == {
            "crash": 0, "hang": 0, "sdc": 10,
            "benign_masked": 0, "benign_not_activated": 0}
        assert demo_campaign.percentage("sdc") == 100.0
        assert all(r.outcome == "sdc" for r in demo_campaign.runs)
        assert all(r.activation_count == 3 for r in demo_campaign.runs)

    def test_artifact_tree(self, demo_campaign):
        out = demo_campaign.config.output_dir
        assert os.path.isfile(os.path.join(out, "llfi", "baseline",
                                           "golden_std_output"))
        assert os.path.isfile(os.path.join(out, "llfi", "baseline",
                                           "llfi.stat.trace.prof.txt"))
        for i in range(10):
            assert os.path.isfile(os.path.join(
                out, "llfi", "std_output", f"std_outputfile-run-{i}-0"))
            assert os.path.isfile(os.path.join(
                out, "llfi", "llfi_stat_output", f"llfi.stat.trace.{i}-0.txt"))
            assert os.path.isfile(os.path.join(
                out, "llfi", "llfi_stat_output",
                f"llfi.stat.fi.injectedfaults.{i}-0.txt"))
        # sdc runs leave no error files, the dir still exists
        assert os.listdir(os.path.join(out, "llfi", "error_output")) == []
        assert os.path.isdir(os.path.join(out, "llfi", "prog_output"))
        for suffix in ("-lcfi_index.ll", "-lcfi_profiling.ll", "-lcfi_fi.ll"):
            assert os.path.isfile(os.path.join(out, "demo" + suffix))

    def test_baseline_contents(self, demo_campaign):
        out = demo_campaign.config.output_dir
        with open(os.path.join(out, "llfi", "baseline", "golden_std_output")) as fh:
            assert fh.read() == demo_campaign.golden.stdout
        from lcfi.traces import read_trace
        recs = read_trace(os.path.join(out, "llfi", "baseline",
                                       "llfi.stat.trace.prof.txt"))
        assert [r.render() for r in recs] == \
            [r.render() for r in demo_campaign.golden.trace]

    def test_injection_logs_have_activations(self, demo_campaign):
        out = demo_campaign.config.output_dir
        with open(os.path.join(out, "llfi", "llfi_stat_output",
                               "llfi.stat.fi.injectedfaults.0-0.txt")) as fh:
            text = fh.read()
        assert "activations=3" in text
        assert text.count("fi_index=15") == 3

    def test_metrics_merged(self, demo_campaign):
        for r in demo_campaign.runs:
            assert r.metrics["first_val"] == 4.0   # invocation 1 is clean
            assert r.metrics["golden_first"] == 4.0

    def test_reports_written(self, demo_campaign):
        out = demo_campaign.config.output_dir
        names = sorted(os.path.basename(p) for p in demo_campaign.report_paths)
        assert names == ["report.csv", "report.json", "report.txt"]
        with open(os.path.join(out, "report.txt")) as fh:
            text = fh.read()
        assert "sdc" in text and "100.0%" in text
        assert "#" * 40 in text  # 100% renders as a full bar
        with open(os.path.join(out, "report.json")) as fh:
            doc = json.load(fh)
        assert doc["outcomes"]["sdc"] == 10
        assert doc["percentages"]["sdc"] == 100.0
        assert doc["targets"] == [15]
        assert doc["scope"] == {"mode": "invocation", "k": [3]}
        assert len(doc["run_details"]) == 10
        assert doc["metrics_summary"]["first_val"]["count"] == 10
        with open(os.path.join(out, "report.csv")) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == ("run,seed,outcome,trap,activations,"
                           "skipped_nonfinite,steps,first_val,golden_first")
        assert len(rows) == 11

    def test_seeds_derived_from_campaign_seed(self, demo_campaign):
        from lcfi.faults import mix64
        expected = [mix64(2025, i, 0) for i in range(10)]
        assert [r.seed for r in demo_campaign.runs] == expected


class TestDeterminismAndParallel:
    def _cfg(self, out, runs=6, jobs=1, program="demo", config=None):
        return CampaignConfig(
            program=fixture_path(f"{program}.ll"),
            input=fixture_path(f"{config or program}_input.yaml"),
            runs=runs, jobs=jobs, output_dir=str(out),
            files={"in.txt": "4 3 3\n"})

    def test_rerun_is_byte_identical(self, tmp_path):
        a = run_campaign(self._cfg(tmp_path / "a"))
        b = run_campaign(self._cfg(tmp_path / "b"))
        for name in ("report.json", "report.csv",
                     os.path.join("llfi", "llfi_stat_output",
                                  "llfi.stat.trace.0-0.txt")):
            with open(os.path.join(a.config.output_dir, name), "rb") as fh:
                left = fh.read()
            with open(os.path.join(b.config.output_dir, name), "rb") as fh:
                right = fh.read()
            assert left == right, name

    @staticmethod
    def _tree(root):
        files = {}
        for dirpath, _dirs, names in os.walk(root):
            for n in names:
                path = os.path.join(dirpath, n)
                with open(path, "rb") as fh:
                    files[os.path.relpath(path, root)] = fh.read()
        return files

    def test_parallel_matches_serial(self, tmp_path):
        for program, config in (("cg", "cg_loop"), ("demo", None),
                                ("fragile", None)):
            serial = run_campaign(self._cfg(tmp_path / program / "s",
                                            program=program, config=config))
            parallel = run_campaign(self._cfg(tmp_path / program / "p", jobs=2,
                                              program=program, config=config))
            left = self._tree(serial.config.output_dir)
            assert left == self._tree(parallel.config.output_dir), program
            assert serial.counts["benign_not_activated"] < len(serial.runs)
        # fragile crashes, so workers wrote its error files
        assert serial.counts["crash"] > 0
        assert any(p.startswith(os.path.join("llfi", "error_output"))
                   for p in left)


GOLDEN_TRAP_SRC = """
define i32 @f(i32* %p) {
  %v = load i32, i32* %p
  ret i32 %v
}
define i32 @main() {
  %s = alloca i32
  store i32 5, i32* %s
  %r = call i32 @f(i32* %s)
  %d = sdiv i32 1, 0
  ret i32 %d
}
"""

TRAP_INPUT = """
fi_type: uniform_abs(1.0)
option:
  - function_name: f
    variable_name: p
    variable_location: 1
"""


class TestFailurePaths:
    def test_golden_run_failed(self, tmp_path):
        prog = tmp_path / "trap.ll"
        prog.write_text(GOLDEN_TRAP_SRC)
        inp = tmp_path / "in.yaml"
        inp.write_text(TRAP_INPUT)
        cfg = CampaignConfig(program=str(prog), input=str(inp), runs=2,
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(GoldenRunFailed) as exc:
            run_campaign(cfg)
        assert exc.value.outcome.trap.kind == "division_by_zero"

    def test_unparseable_program(self, tmp_path):
        prog = tmp_path / "bad.ll"
        prog.write_text("define wibble\n")
        cfg = CampaignConfig(program=str(prog),
                             input=fixture_path("demo_input.yaml"),
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError):
            run_campaign(cfg)

    def test_invalid_program_rejected(self, tmp_path):
        prog = tmp_path / "invalid.ll"
        prog.write_text("define i32 @main() {\n  br label %ghost\n}\n")
        cfg = CampaignConfig(program=str(prog),
                             input=fixture_path("demo_input.yaml"),
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="ghost"):
            run_campaign(cfg)

    def test_unresolvable_target_is_config_error(self, tmp_path):
        inp = tmp_path / "in.yaml"
        inp.write_text("fi_type: uniform_abs(1.0)\noption:\n"
                       "  - function_name: nowhere\n    variable_name: x\n")
        cfg = CampaignConfig(program=fixture_path("demo.ll"), input=str(inp),
                             output_dir=str(tmp_path / "out"),
                             files={"in.txt": "4 3 3\n"})
        with pytest.raises(ConfigError):
            run_campaign(cfg)

    def test_missing_program_file(self, tmp_path):
        cfg = CampaignConfig(program=str(tmp_path / "nope.ll"),
                             input=fixture_path("demo_input.yaml"),
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match="cannot read program"):
            run_campaign(cfg)
