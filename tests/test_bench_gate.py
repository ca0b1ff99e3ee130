"""The CI bench-gate: record comparison and failure semantics.

Pure-logic tests over synthetic BENCH records — no timing involved — so
the gate's behavior (1.5x wall-clock threshold, scanned-row counters,
speedup-drop detection, the --inject-slowdown self-test, baseline
refresh) is pinned deterministically in tier 1.
"""

import json
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks"))

from bench_gate import compare_records, load_records, main, run_gate  # noqa: E402


def _record(name="e99", normalized=10.0, metrics=None):
    return {
        "schema": 1,
        "experiment": name,
        "elapsed_s": normalized / 100.0,
        "calibration_s": 0.01,
        "normalized": normalized,
        "metrics": metrics or {},
    }


class TestCompareRecords:
    def test_identical_records_pass(self):
        base = _record()
        assert compare_records(base, dict(base), threshold=1.5) == []

    def test_slowdown_within_threshold_passes(self):
        base = _record(normalized=10.0)
        cur = _record(normalized=14.0)
        assert compare_records(base, cur, threshold=1.5) == []

    def test_wall_clock_regression_fails(self):
        base = _record(normalized=10.0)
        cur = _record(normalized=20.0)
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "wall-clock" in failures[0]

    def test_scanned_rows_regression_fails(self):
        base = _record(metrics={"fixpoint_rows_scanned": 1000.0})
        cur = _record(metrics={"fixpoint_rows_scanned": 1600.0})
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "rows_scanned" in failures[0]

    def test_deterministic_scan_ratio_gates_at_tight_threshold(self):
        # Scanned-row quotients are deterministic: a 2x drop fails even
        # though timing ratios would tolerate it.
        base = _record(metrics={"range_scan_ratio": 3.0})
        cur = _record(metrics={"range_scan_ratio": 1.5})
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "deterministic" in failures[0]

    def test_speedup_collapse_fails(self):
        base = _record(metrics={"headline_speedup": 9.0})
        cur = _record(metrics={"headline_speedup": 2.0})
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "fell to" in failures[0]

    def test_speedup_noise_within_ratio_threshold_passes(self):
        # Timing-ratio metrics get the wide RATIO_THRESHOLD margin: a
        # 2x wobble on a few-sample quotient is noise, not regression.
        base = _record(metrics={"headline_speedup": 9.0})
        cur = _record(metrics={"headline_speedup": 4.5})
        assert compare_records(base, cur, threshold=1.5) == []

    def test_schema_mismatch_fails(self):
        base = _record()
        cur = dict(_record(), schema=2)
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "schema" in failures[0]

    def test_new_metric_without_baseline_ignored(self):
        base = _record(metrics={})
        cur = _record(metrics={"brand_new_speedup": 2.0})
        assert compare_records(base, cur, threshold=1.5) == []

    def test_disappeared_baseline_metric_fails(self):
        base = _record(metrics={"headline_speedup": 9.0})
        cur = _record(metrics={})
        failures = compare_records(base, cur, threshold=1.5)
        assert len(failures) == 1 and "missing" in failures[0]


class TestRunGate:
    def _write(self, directory, record):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{record['experiment']}.json"
        path.write_text(json.dumps(record))

    def test_green_run(self, tmp_path):
        self._write(tmp_path / "base", _record())
        self._write(tmp_path / "cur", _record())
        failures, notes = run_gate(tmp_path / "base", tmp_path / "cur", 1.5)
        assert failures == [] and any("ok" in n for n in notes)

    def test_injected_slowdown_fails(self, tmp_path):
        self._write(tmp_path / "base", _record())
        self._write(tmp_path / "cur", _record())
        failures, _ = run_gate(
            tmp_path / "base", tmp_path / "cur", 1.5, inject_slowdown=2.0
        )
        assert len(failures) == 1

    def test_missing_current_record_is_note_not_failure(self, tmp_path):
        self._write(tmp_path / "base", _record())
        (tmp_path / "cur").mkdir()
        failures, notes = run_gate(tmp_path / "base", tmp_path / "cur", 1.5)
        assert failures == [] and any("not run" in n for n in notes)

    def test_empty_baselines_pass_with_note(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "cur").mkdir()
        failures, notes = run_gate(tmp_path / "base", tmp_path / "cur", 1.5)
        assert failures == [] and any("nothing gated" in n for n in notes)


class TestCli:
    def test_update_then_gate_roundtrip(self, tmp_path, capsys):
        cur = tmp_path / "cur"
        cur.mkdir()
        (cur / "BENCH_e99.json").write_text(json.dumps(_record()))
        base = tmp_path / "base"
        assert main(["--baselines", str(base), "--current", str(cur), "--update"]) == 0
        assert load_records(base)["e99"]["normalized"] == 10.0
        assert main(["--baselines", str(base), "--current", str(cur)]) == 0
        assert (
            main(
                ["--baselines", str(base), "--current", str(cur),
                 "--inject-slowdown", "2.0"]
            )
            == 1
        )
        out = capsys.readouterr().out
        assert "BENCH GATE FAILED" in out and "bench-override" in out


class TestRunAllCli:
    def test_unknown_experiment_id_exits_nonzero_and_lists_valid_ids(
        self, tmp_path, capsys
    ):
        from repro.bench.run_all import main as run_all

        out_dir = tmp_path / "results"
        assert run_all([str(out_dir), "e14", "e99"]) != 0
        err = capsys.readouterr().err
        assert "e99" in err and "e14" in err and "e22" in err
        assert not out_dir.exists()  # rejected before anything runs
