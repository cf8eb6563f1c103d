import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from buslab import analytics, cli
from buslab.cli import main
from buslab.codecs import (
    coset_spec,
    dbi_spec,
    make_codec,
    make_golay23,
    make_hamming,
    make_repetition,
    optimal_spec,
    ppm0_spec,
)
from buslab.simulator import TraceConfig, run_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--k", "11", "--b", "12")
        assert code == 0
        assert "2921/1024" in out
        assert "0.481356534" in out
        assert "0.518643466" in out

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--k", "4", "--b", "11", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["d_opt"] == "15/16"
        assert data["transition_ratio"] == "15/32"
        assert data["d_min"] == "15/16"
        assert data["energy_saving"] == "17/32"

    def test_trivial_case(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--k", "1", "--b", "0", "--json")
        assert code == 0
        assert json.loads(out)["d_opt"] == "1/2"

    def test_csv_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--k", "11", "--b", "12", "--csv")
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("k,b,n,d_unc,d_max,d_opt")
        assert row == "11,12,23,5.5,3,2.85253906,0.518643466,0.481356534,0.999511719,75.3134766"

    def test_json_and_csv_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--k", "4", "--b", "1", "--json", "--csv"])
        assert exc.value.code == 2

    def test_bad_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--k", "0", "--b", "3")
        assert code == 2
        assert "k=0" in err


class TestSweep:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "11", "--b", "13")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "b,d_max,d_opt,saving"
        assert len(lines) == 1 + 14 + 1  # header, b = 0..13, bound row
        assert lines[2] == "1,6,4.64648438,0.155184659"
        assert lines[13] == "12,3,2.85253906,0.481356534"
        assert lines[-1] == "ppm_bound,,,0.818270597"

    def test_byte_stable_output(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--k", "8", "--b", "20", "--out", str(out_a)]) == 0
        assert main(["sweep", "--k", "8", "--b", "20", "--out", str(out_b)]) == 0
        raw = out_a.read_bytes()
        assert raw == out_b.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_rows_carry_exact_rationals(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--k", "11", "--b", "12", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["rows"][12]["d_opt"] == "2921/1024"
        assert data["ppm_bound_decimal"] == "0.818270597"

    def test_negative_b_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--k", "4", "--b", "-1")
        assert code == 2
        assert "-1" in err

    def test_out_of_range_sweep_fails_before_any_row(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "sweep", "--k", "1", "--b", "4194304", "--out", str(out))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "n=4194305" in err
        assert not out.exists()

    def test_a_reader_closing_the_pipe_exits_141_silently(self):
        # 128 + SIGPIPE, as `yes | head` reports, not the usage-error code 2
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(  # its exit closes stderr too: no ResourceWarning
            [sys.executable, "-m", "buslab", "sweep", "--k", "20", "--b", "100000"],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"b,d_max,d_opt,saving\n"
            proc.stdout.close()
            try:
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 141
            finally:
                proc.kill()
        assert err == b""


class TestSimulate:
    def test_json_uncoded(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "uncoded", "--k", "11", "--length", "50000", "--seed", "1", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["reference_mean"] == "11/2"
        assert abs(data["mean_transitions"] - 5.5) / 5.5 < 0.02
        assert data["rel_deviation"] < 0.02

    def test_family_flag_form(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--family", "optimal", "--k", "8", "--b", "4",
            "--length", "20000", "--seed", "3", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["reference_mean"] is not None
        assert data["comparisons"] > 0

    def test_deterministic_for_fixed_args(self, capsys):
        args = ["simulate", "dbi", "--k", "6", "--length", "5000", "--seed", "9", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_s")
        second.pop("elapsed_s")
        assert first == second

    def test_optimal_text_prints_the_clock_lines_of_its_json_run(self, capsys):
        args = ("simulate", "optimal", "--k", "8", "--b", "4", "--length", "20000", "--seed", "3")
        code, text, _ = run_cli(capsys, *args)
        assert code == 0
        data = json.loads(run_cli(capsys, *args, "--json")[1])
        assert data["baseline_clock_cycles"] == 12 * 20000
        lines = text.splitlines()
        assert (f"  modulator clocks        {data['clock_cycles']} "
                f"(bit-serial baseline {data['baseline_clock_cycles']})") in lines
        assert f"  comparisons/additions   {data['comparisons']}/{data['additions']}" in lines

    @pytest.mark.parametrize("argv", [("ppm0", "--k", "4"), ("dbi", "--k", "6")], ids=["ppm0", "dbi"])
    def test_other_families_print_no_clock_lines(self, capsys, argv):
        code, text, _ = run_cli(capsys, "simulate", *argv, "--length", "2000", "--seed", "3")
        assert code == 0 and text.startswith(f"simulated {argv[0]} ")
        assert "modulator clocks" not in text and "comparisons/additions" not in text

    def test_csv_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "optimal", "--k", "8", "--b", "4",
            "--length", "10000", "--seed", "1", "--csv",
        )
        assert code == 0
        header, row = out.splitlines()
        assert header.startswith("family,k,b,n,length,seed,mean_transitions")
        fields = row.split(",")
        assert fields[:6] == ["optimal", "8", "4", "12", "10000", "1"]
        assert fields[11] != ""  # closed-form reference present

    def test_coset_resolution_from_k_b(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "coset", "--k", "11", "--b", "12",
            "--length", "20000", "--seed", "2", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["reference_mean"] == "2921/1024"

    @pytest.mark.parametrize("k, b", [(17, 131054), (4000, 1)])
    def test_coset_past_the_syndrome_cap_exits_2_before_any_build(self, capsys, k, b):
        # building these codes first took 8.6 s and 1.1 GB, or 2.3 s
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", "coset", "--k", str(k), "--b", str(b))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert f"coset k={k} exceeds the 16-bit syndrome table cap" in err

    @pytest.mark.parametrize("k", [0, -2])
    def test_coset_k_below_1_reports_k_like_every_family(self, capsys, k):
        # b = 1 used to build a repetition code of k + 1 lines and report that
        code, out, err = run_cli(capsys, "simulate", "coset", "--k", str(k), "--b", "1")
        assert (code, out) == (2, "")
        assert f"k={k} must be >= 1" in err and "repetition" not in err

    def test_missing_family_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--k", "4")
        assert code == 2
        assert "family" in err

    def test_missing_b_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "optimal", "--k", "4")
        assert code == 2
        assert "--b" in err

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "fancy", "--k", "4"])
        assert exc.value.code == 2

    def test_conflicting_family_forms_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "uncoded", "--family", "optimal", "--k", "4", "--b", "0"])
        assert exc.value.code == 2
        assert "argument --family: not allowed with argument FAMILY" in capsys.readouterr().err

    def test_zero_jobs_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "uncoded", "--k", "4", "--jobs", "0")
        assert code == 2
        assert "--jobs" in err

    def test_zero_length_exits_2_naming_the_flag(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "optimal", "--k", "3", "--b", "2",
                                 "--length", "0")
        assert (code, out) == (2, "")
        assert err == "error: --length must be >= 1, got 0\n"

    def test_more_jobs_than_words_exits_2_naming_both_flags(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "optimal", "--k", "3", "--b", "2",
                                 "--length", "3", "--jobs", "5")
        assert (code, out) == (2, "")
        assert err == "error: --jobs must be in 1..3 (--length), got 5\n"

    def test_negative_seed_exits_2_naming_the_seed(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "uncoded", "--k", "8", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed must be >= 0, got -1" in err

    @pytest.mark.parametrize(
        "k, has_reference", [(12, True), (13, True), (14, True), (15, True), (16, True), (63, True)]
    )
    def test_dbi_reference_up_to_the_exhaustive_cap(self, capsys, k, has_reference):
        # DBI's d_opt(k, 1) needs no cap
        code, out, _ = run_cli(capsys, "simulate", "dbi", "--k", str(k), "--length", "1000")
        assert code == 0
        assert ("closed-form reference" in out) == has_reference

    def test_jobs_sets_the_shard_count(self, capsys):
        # --jobs is the shard count and stays in the JSON output
        args = ["simulate", "dbi", "--k", "6", "--length", "5000", "--seed", "9", "--json"]
        assert main(args + ["--jobs", "2"]) == 0
        two = json.loads(capsys.readouterr().out)
        cfg = TraceConfig(spec=dbi_spec(6), trace_length=5000, seed=9, shards=2)
        assert two["jobs"] == 2
        assert two["weight_histogram"] == run_trace(cfg).weight_histogram

    @pytest.mark.parametrize(
        "argv, entries",
        [
            (("ppm0", "--k", "20", "--length", "100000"), 2),
            (("coset", "--k", "16", "--b", "65519", "--length", "100000"), 2),
            (("dbi", "--k", "8"), 5),
        ],
        ids=["ppm0-20", "hamming-16", "dbi-8"],
    )
    def test_json_histogram_ends_at_the_heaviest_step(self, capsys, argv, entries):
        # one entry per step weight up to the family's heaviest step, not one
        # per bus line (ppm0 k = 20 has 2^20 - 1 lines, Hamming k = 16 65,535)
        try:
            code, out, _ = run_cli(capsys, "simulate", *argv, "--json")
        finally:
            make_codec.cache_clear()
        assert code == 0
        assert len(out.encode()) < 1024
        data = json.loads(out)
        assert len(data["weight_histogram"]) == entries
        assert sum(data["weight_histogram"]) == data["length"]


class TestVerify:
    def test_rank_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "rank")
        assert code == 0
        assert out.startswith("PASS")
        assert "1/1 checks passed" in out

    def test_unknown_scope_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "everything"])
        assert exc.value.code == 2


class TestCodebook:
    def test_optimal_k4_rows(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "optimal", "--k", "4", "--b", "11")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 16
        assert lines[0] == "0,000000000000000,0"
        assert lines[7] == "7,000000001000000,1"

    def test_golay_geometry_last_row(self, capsys):
        code, out, _ = run_cli(capsys, "codebook", "optimal", "--k", "11", "--b", "12")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2048
        assert lines[2047] == "2047," + "111" + "0" * 20 + ",3"

    def test_writes_file(self, tmp_path):
        out = tmp_path / "book.csv"
        assert main(["codebook", "ppm0", "--k", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "0,0000000,0"
        assert lines[1] == "1,0000001,1"

    def test_rejects_state_dependent_families(self, capsys):
        code, _, err = run_cli(capsys, "codebook", "dbi", "--k", "4", "--b", "1")
        assert code == 2
        assert "dbi" in err

    def test_conflicting_family_forms_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["codebook", "ppm0", "--family", "optimal", "--k", "3", "--b", "4"])
        assert exc.value.code == 2
        err = capsys.readouterr()
        assert err.out == ""
        assert "argument --family: not allowed with argument FAMILY" in err.err

    def test_rejects_large_k(self, capsys):
        code, _, err = run_cli(capsys, "codebook", "optimal", "--k", "13", "--b", "2")
        assert code == 2
        assert "k" in err


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VALID_ARGVS = [
    ["analyze", "--k", "11", "--b", "12"],
    ["analyze", "--k", "11", "--b", "12", "--json"],
    ["analyze", "--k", "11", "--b", "12", "--csv"],
    ["sweep", "--k", "11", "--b", "13"],
    ["sweep", "--k", "4", "--b", "3", "--json"],
    ["simulate", "optimal", "--k", "8", "--b", "4", "--length", "2000", "--seed", "1", "--csv"],
    ["simulate", "--family", "dbi", "--k", "6", "--length", "2000", "--csv"],
    ["verify", "rank"],
    ["codebook", "ppm0", "--k", "3"],
    ["codebook", "--family", "optimal", "--k", "4", "--b", "2"],
]
PARSE_ARGVS = VALID_ARGVS + [
    ["-h"],
    ["analyze", "-h"],
    [],
    ["bogus"],
    ["analyze", "--k", "11", "--b", "12", "extra"],
    ["analyze", "--k", "11", "--b", "12", "--json", "--csv"],
    ["verify", "nope"],
    ["--k", "3", "analyze"],
]


class TestParse:
    @pytest.mark.parametrize("argv", PARSE_ARGVS, ids=" ".join)
    def test_each_command_parses_as_the_top_level_parser_does(self, capsys, monkeypatch, argv):
        got = _outcome(capsys, argv)
        # the oracle: no command parser to look up, so every argv goes through
        # the top-level parse_args
        parser, _ = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: (parser, {}))
        assert got == _outcome(capsys, argv)

    @pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
    def test_a_valid_command_parses_once(self, capsys, monkeypatch, argv):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counted(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        code, _, _ = _outcome(capsys, argv)
        assert (code, calls) == (0, [f"buslab {argv[0]}"])


def _sweep_oracle(k, b_max, as_json):
    """Per-row output from the Fraction closed forms: json.dumps or an f-string per row."""
    half = Fraction(k, 2)
    rows = [(b, analytics.d_max(k, b), analytics.d_opt(k, b)) for b in range(b_max + 1)]
    bound = 1 - analytics.d_min(k) / half
    if as_json:
        payload = {
            "k": k,
            "rows": [
                {"b": b, "d_max": dm, "d_opt": str(d), "d_opt_decimal": f"{float(d):.9g}",
                 "saving": str(1 - d / half), "saving_decimal": f"{float(1 - d / half):.9g}"}
                for b, dm, d in rows
            ],
            "ppm_bound": str(bound),
            "ppm_bound_decimal": f"{float(bound):.9g}",
        }
        return json.dumps(payload, indent=2) + "\n"
    body = "".join(f"{b},{dm},{float(d):.9g},{float(1 - d / half):.9g}\n" for b, dm, d in rows)
    return f"b,d_max,d_opt,saving\n{body}ppm_bound,,,{float(bound):.9g}\n"


class TestBlocks:
    @pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep_blocks_match_per_row_formatting(self, capsys, tmp_path, rows, fmt):
        argv = ["sweep", "--k", "5", "--b", str(rows - 1), f"--{fmt}"]
        want = _sweep_oracle(5, rows - 1, fmt == "json")
        assert _outcome(capsys, argv) == (0, want, "")
        path = tmp_path / "sweep.out"
        assert _outcome(capsys, [*argv, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "spec",
        [optimal_spec(11, 12), optimal_spec(3, 1), ppm0_spec(10), ppm0_spec(2),
         coset_spec(make_golay23()), coset_spec(make_repetition(4)), coset_spec(make_hamming(4))],
        ids=lambda s: f"{s.family.value}-{s.k}-{s.b}",
    )
    def test_codebook_blocks_match_per_row_formatting(self, capsys, tmp_path, spec):
        codec, n = spec.codec, spec.n
        diffs = [codec.differential_int(u) for u in range(1 << spec.k)]
        want = "".join(f"{u},{d:0{n}b},{d.bit_count()}\n" for u, d in enumerate(diffs))
        argv = ["codebook", spec.family.value, "--k", str(spec.k), "--b", str(spec.b)]
        assert _outcome(capsys, argv) == (0, want, "")
        path = tmp_path / "book.csv"
        assert _outcome(capsys, [*argv, "--out", str(path)]) == (0, "", "")
        assert path.read_bytes() == want.encode()
