import random

import pytest

from lcfi.instrument import assign_indices, build_plan, load_input_config
from lcfi.ir.defuse import build_def_use
from lcfi.faults import Sampler, make_sampler
from lcfi.traces import (AlignedPair, Divergence, IndexMismatch, TraceFormatError,
                         TraceRecord, _myers_ops, build_propagation,
                         format_record, parse_record, read_trace, trace_diff,
                         trace_to_dot, trace_union, write_trace)
from lcfi.vm.machine import IoConfig, Machine

from conftest import fixture_path, load_fixture_module


class TestRecordFormat:
    def test_exact_layout(self):
        assert format_record(15, "load", "4010000000000000") == \
            "ID: 15   OPCode: load   Value: 4010000000000000"
        assert format_record(7, "store", "00000000") == \
            "ID: 7    OPCode: store  Value: 00000000"

    def test_wide_fields_get_a_space(self):
        line = format_record(123456, "getelementptr", "00000000")
        assert line == "ID: 123456 OPCode: getelementptr Value: 00000000"
        assert parse_record(line) == TraceRecord(123456, "getelementptr", "00000000")

    def test_roundtrip(self):
        rec = TraceRecord(42, "fmul", "4014e8d25119f5e3")
        assert parse_record(rec.render()) == rec

    def test_whitespace_tolerant(self):
        assert parse_record("  ID:  9\tOPCode:  add   Value: 0000002A  ") == \
            TraceRecord(9, "add", "0000002a")

    def test_blank_line_is_none(self):
        assert parse_record("   \n") is None

    @pytest.mark.parametrize("line", [
        "ID: x OPCode: add Value: 00000000",
        "ID: 9 OPCode: add Value: xyz",
        "ID: 9 Value: 00000000",
        "9 add 00000000",
    ])
    def test_malformed_raises(self, line):
        with pytest.raises(TraceFormatError):
            parse_record(line)

    def test_read_trace_reports_line_number(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_text("ID: 1    OPCode: load    Value: 00000000\njunk\n")
        with pytest.raises(TraceFormatError, match="line 2"):
            read_trace(str(p))

    def test_write_read_roundtrip(self, tmp_path):
        recs = [TraceRecord(1, "load", "0000002a"),
                TraceRecord(2, "store", "00000000")]
        p = tmp_path / "t.txt"
        write_trace(recs, str(p))
        assert read_trace(str(p)) == recs

    def test_read_from_lines(self):
        lines = ["ID: 3    OPCode: add     Value: 00000001", "", ]
        assert read_trace(lines) == [TraceRecord(3, "add", "00000001")]


def _lcs_len(a, b):
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            dp[i][j] = (dp[i + 1][j + 1] + 1 if a[i] == b[j]
                        else max(dp[i + 1][j], dp[i][j + 1]))
    return dp[0][0]


class TestMyersAlignment:
    def _check(self, a, b):
        ops = _myers_ops(a, b)
        # replaying the script must reconstruct both sequences in order
        ai = [i for kind, *rest in ops for i in
              ([rest[0]] if kind in ("match", "del") else [])]
        bj = []
        for op in ops:
            if op[0] == "match":
                assert a[op[1]] == b[op[2]]
                bj.append(op[2])
            elif op[0] == "ins":
                bj.append(op[1])
        assert ai == list(range(len(a)))
        assert bj == list(range(len(b)))
        matches = sum(1 for op in ops if op[0] == "match")
        assert matches == _lcs_len(a, b), "edit script must be minimal"

    def test_small_known_cases(self):
        self._check([], [])
        self._check([1, 2, 3], [1, 2, 3])
        self._check([1, 2, 3], [])
        self._check([], [1, 2])
        self._check([1, 2, 3, 4], [2, 3, 5])
        self._check([1, 1, 2], [2, 1, 1])

    def test_randomized_against_lcs_oracle(self):
        rng = random.Random(2024)
        for _ in range(400):
            n, m = rng.randint(0, 12), rng.randint(0, 12)
            a = [rng.randint(1, 5) for _ in range(n)]
            b = [rng.randint(1, 5) for _ in range(m)]
            self._check(a, b)


class TestTraceDiff:
    def test_fixture_divergence(self):
        golden = read_trace(fixture_path("trace_golden.txt"))
        faulty = read_trace(fixture_path("trace_faulty.txt"))
        report = trace_diff(golden, faulty)
        assert not report.identical
        first = report.first_divergence
        assert first.kind == "value"
        assert first.golden.index == 18
        assert first.golden.value_hex == "4010000000000000"
        assert first.faulty.value_hex == "4014e8d25119f5e3"
        only = [d for d in report.control_flow_divergences]
        assert [d.golden.index for d in only] == [19]
        assert all(d.kind == "golden_only" for d in only)
        assert report.classification == "control_flow"
        assert "value divergence at ID 18" in first.describe()
        assert "only in golden" in only[0].describe()

    def test_identical(self):
        recs = [TraceRecord(1, "load", "0000002a")]
        report = trace_diff(recs, list(recs))
        assert report.identical
        assert report.classification == "identical"
        assert report.value_divergences == []

    def test_value_only_is_data_flow(self):
        golden = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        faulty = [TraceRecord(1, "load", "00000009"),
                  TraceRecord(2, "add", "0000000a")]
        report = trace_diff(golden, faulty)
        assert report.classification == "data_flow"
        assert [d.golden.index for d in report.value_divergences] == [1, 2]

    def test_alignment_ignores_values(self):
        # same index sequence with different values must align 1:1
        golden = [TraceRecord(i, "add", "00000001") for i in (1, 2, 3)]
        faulty = [TraceRecord(i, "add", "00000002") for i in (1, 2, 3)]
        report = trace_diff(golden, faulty)
        assert all(p.matched() for p in report.pairs)
        assert len(report.value_divergences) == 3

    def test_faulty_only_records(self):
        golden = [TraceRecord(1, "load", "00000001")]
        faulty = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(9, "br", "00000000")]
        report = trace_diff(golden, faulty)
        assert report.first_divergence.kind == "faulty_only"
        assert report.classification == "control_flow"

    def test_first_divergence_in_alignment_order(self):
        golden = [TraceRecord(1, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        faulty = [TraceRecord(5, "load", "00000001"),
                  TraceRecord(2, "add", "00000002")]
        report = trace_diff(golden, faulty)
        # the unmatched slot at the front must win over later matches
        assert report.first_divergence.kind in ("golden_only", "faulty_only")
        assert report.first_divergence.position == 0


class TestTraceUnion:
    def test_counts_and_values(self):
        t1 = [TraceRecord(1, "load", "00000001"),
              TraceRecord(2, "add", "00000002"),
              TraceRecord(1, "load", "00000003")]
        t2 = [TraceRecord(1, "load", "00000001")]
        union = trace_union([t1, t2])
        assert sorted(union) == [1, 2]
        e1 = union[1]
        assert e1.executions == 3
        assert e1.per_trace == [2, 1]
        assert e1.values == {"00000001", "00000003"}
        assert union[2].per_trace == [1, 0]

    def test_empty(self):
        assert trace_union([]) == {}
        assert trace_union([[]]) == {}


def test_run_trace_reads_like_its_records(tmp_path, demo_indexed, demo_io):
    trace = Machine(demo_indexed, demo_io, trace=True).run().trace
    records = list(trace)
    assert len(trace) == len(records) > 0
    assert (trace[0], trace[-1], trace[2:5]) == (records[0], records[-1], records[2:5])
    assert trace + trace == records + trace == records * 2
    write_trace(trace, str(tmp_path / "run.txt"))
    write_trace(records, str(tmp_path / "records.txt"))
    assert (tmp_path / "run.txt").read_bytes() == (tmp_path / "records.txt").read_bytes()
    assert read_trace(str(tmp_path / "run.txt")) == records


def _demo_traces(demo_indexed, demo_io, seed=77):
    cfg = load_input_config(fixture_path("demo_input.yaml"))
    plan = build_plan(demo_indexed, cfg)
    golden = Machine(demo_indexed, demo_io, trace=True).run()
    sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))), seed)
    faulty = Machine(demo_indexed, demo_io, plan=plan, sampler=sampler,
                     trace=True).run()
    return golden, faulty


class TestPropagation:
    def test_demo_fault_feeds_output_no_annihilation(self, demo_indexed, demo_io):
        golden, faulty = _demo_traces(demo_indexed, demo_io)
        graph = build_def_use(demo_indexed)
        prop = build_propagation(golden.trace, faulty.trace, graph,
                                 outputs_equal=golden.stdout == faulty.stdout)
        # perturbed element load, the two reloads of ans, and the call record
        # of the third process invocation in main
        assert sorted(prop.nodes) == [15, 18, 25, 46]
        # every consumer is a store/call/ret, none of which attest masking
        assert prop.annihilation_points() == []
        assert prop.edges == set()
        assert not prop.benign_candidate

    def test_masked_fixture_annihilates(self, demo_io):
        m = assign_indices(load_fixture_module("masked.ll"))
        cfg = load_input_config(fixture_path("masked_input.yaml"))
        plan = build_plan(m, cfg)
        golden = Machine(m, trace=True).run()
        sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))),
                               cfg.seed)
        faulty = Machine(m, plan=plan, sampler=sampler, trace=True).run()
        assert golden.stdout == faulty.stdout == "result: 7.500000\n"
        graph = build_def_use(m)
        prop = build_propagation(golden.trace, faulty.trace, graph,
                                 outputs_equal=True)
        assert sorted(prop.nodes) == [1, 2]
        assert prop.annihilation_points() == [2]
        assert prop.benign_candidate

    def test_no_consumers_annihilates_trivially(self):
        from lcfi.ir.defuse import UseGraph
        graph = UseGraph(frozenset(), {1: "load"})
        golden = [TraceRecord(1, "load", "00000001")]
        faulty = [TraceRecord(1, "load", "00000002")]
        prop = build_propagation(golden, faulty, graph, outputs_equal=True)
        assert prop.annihilation_points() == [1]

    def test_unknown_index_rejected(self, demo_indexed):
        graph = build_def_use(demo_indexed)
        golden = [TraceRecord(999, "load", "00000001")]
        with pytest.raises(IndexMismatch):
            build_propagation(golden, [], graph)

    def test_dot_rendering(self, demo_io):
        m = assign_indices(load_fixture_module("masked.ll"))
        cfg = load_input_config(fixture_path("masked_input.yaml"))
        plan = build_plan(m, cfg)
        golden = Machine(m, trace=True).run()
        sampler = make_sampler(cfg.fault_spec(base_dir=str(fixture_path(""))),
                               cfg.seed)
        faulty = Machine(m, plan=plan, sampler=sampler, trace=True).run()
        prop = build_propagation(golden.trace, faulty.trace,
                                 build_def_use(m), outputs_equal=True)
        dot = trace_to_dot(prop, title="masked")
        assert dot.startswith('digraph "masked" {')
        assert dot.rstrip().endswith("}")
        assert "n1 -> n2;" in dot
        assert 'n2 [label="2 / fmul /' in dot
        assert "peripheries=2" in dot.split("n2 [")[1].split("]")[0]
