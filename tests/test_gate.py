"""Tests for the gate harness (repro.gate).

Every deterministic scenario is checked against its committed baseline
here; ``bench`` stays out because its speedup floors are wall clock.
"""

import copy
import dataclasses
import json
import math
import pathlib

import pytest

from repro import gate

ROOT = pathlib.Path(__file__).resolve().parent.parent
DETERMINISTIC = ("obs", "cluster", "pipeline", "serve", "fleet")

#: Series the obs run has gained since ``baseline.json`` was committed
#: (the ``network`` phase lane); they are new, not gated.
OBS_UNGATED = {
    f'repro_phase_seconds_{agg}{{framework="{name}",phase="network"}}'
    for agg in ("count", "sum")
    for name in ("dgl", "fastgl", "fastgl-ooc")
}

#: A synthetic ``BENCH_repro.json``: timings, a speedup and work counters.
BENCH_DOC = {"kernels": [
    {"kernel": "match_degree_matrix", "size": "small", "best_s": 0.01,
     "mean_s": 0.012, "legacy_s": 0.1, "speedup_vs_legacy": 10.0,
     "work": {"batches": 48, "matrix_sum": 45.5}},
]}


def committed(name):
    return json.loads((ROOT / gate.SCENARIOS[name].baseline).read_text())


@pytest.fixture(scope="module")
def outcomes():
    """One run of each deterministic scenario, shared by all tests here."""
    return {name: gate.SCENARIOS[name].run() for name in DETERMINISTIC}


@pytest.fixture
def obs_baseline(outcomes):
    return gate.build_baseline(gate.SCENARIOS["obs"], outcomes["obs"])


def first_positive(baseline):
    return next((name, entry) for name, entry in baseline["metrics"].items()
                if entry["value"] > 0)


class TestSuite:
    def test_snapshot_covers_every_subsystem(self, outcomes):
        families = {name.split("{")[0] for name in outcomes["obs"].metrics}
        assert "repro_phase_seconds_sum" in families           # epoch driver
        assert "repro_idmap_cas_ops_total" in families         # sampling
        assert "repro_transfer_feature_bytes_total" in families  # transfer
        assert "repro_storage_page_hits_total" in families     # storage
        assert "repro_pipeline_stall_seconds_total" in families  # sim

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_suite_is_deterministic(self, outcomes, name):
        assert gate.SCENARIOS[name].run().metrics == outcomes[name].metrics

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_invariants_hold(self, outcomes, name):
        assert outcomes[name].failures == []


class TestCommittedBaseline:
    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_current_run_passes_committed_baseline(self, outcomes, name):
        """The gate itself: HEAD must match the committed baseline."""
        violations = gate.check(outcomes[name].metrics, committed(name))
        assert violations == [], "\n".join(
            gate.format_violation(v) for v in violations)

    @pytest.mark.parametrize("name", DETERMINISTIC)
    def test_written_baseline_matches_committed(self, outcomes, name,
                                                tmp_path, monkeypatch):
        path = tmp_path / f"{name}.json"
        scenario = dataclasses.replace(
            gate.SCENARIOS[name], baseline=str(path),
            run=lambda: copy.deepcopy(outcomes[name]))
        monkeypatch.setitem(gate.SCENARIOS, name, scenario)
        assert gate.main([name, "--write"]) == 0
        written, expected = json.loads(path.read_text()), committed(name)
        assert written["default_tolerance"] == expected["default_tolerance"]
        assert written["suite"] == expected["suite"]
        ungated = OBS_UNGATED if name == "obs" else set()
        assert set(written["metrics"]) == set(expected["metrics"]) | ungated


class TestCheck:
    def test_fresh_baseline_has_no_violations(self, outcomes, obs_baseline):
        assert obs_baseline["metrics"]
        assert gate.check(outcomes["obs"].metrics, obs_baseline) == []

    def test_perturbation_beyond_tolerance_fails(self, outcomes,
                                                 obs_baseline):
        name, entry = first_positive(obs_baseline)
        entry["value"] *= 1.5
        violations = gate.check(outcomes["obs"].metrics, obs_baseline)
        assert len(violations) == 1
        assert violations[0]["metric"] == name
        assert violations[0]["reason"] == "drift"
        assert "DRIFT" in gate.format_violation(violations[0])

    def test_perturbation_within_tolerance_passes(self, outcomes,
                                                  obs_baseline):
        _, entry = first_positive(obs_baseline)
        entry["value"] *= 1.01
        assert gate.check(outcomes["obs"].metrics, obs_baseline) == []

    def test_per_metric_tolerance_overrides_default(self, outcomes,
                                                    obs_baseline):
        _, entry = first_positive(obs_baseline)
        entry["value"] *= 1.2
        entry["tolerance"] = 0.5
        assert gate.check(outcomes["obs"].metrics, obs_baseline) == []

    def test_missing_metric_is_a_violation(self, outcomes, obs_baseline):
        obs_baseline["metrics"]["made_up_metric_total"] = {"value": 42.0}
        violations = gate.check(outcomes["obs"].metrics, obs_baseline)
        assert len(violations) == 1
        assert violations[0]["reason"] == "missing"
        assert "MISSING" in gate.format_violation(violations[0])

    def test_new_metrics_in_snapshot_are_not_violations(self, outcomes,
                                                        obs_baseline):
        del obs_baseline["metrics"][next(iter(obs_baseline["metrics"]))]
        assert gate.check(outcomes["obs"].metrics, obs_baseline) == []


class TestBenchBaseline:
    @pytest.fixture
    def metrics(self):
        return gate.flatten_bench(BENCH_DOC)

    def test_written_rule(self, metrics):
        baseline = gate.build_baseline(gate.SCENARIOS["bench"],
                                       gate.Outcome(metrics))
        assert baseline == {"default_tolerance": 0.0, "metrics": {
            "match_degree_matrix/small:speedup_vs_legacy": {"min": 4.0},
            "match_degree_matrix/small:work.batches": {"value": 48.0},
            "match_degree_matrix/small:work.matrix_sum": {"value": 45.5},
        }}
        assert gate.check(metrics, baseline) == []

    def test_below_min(self, metrics):
        baseline = {"metrics": {
            "match_degree_matrix/small:speedup_vs_legacy": {"min": 12.0}}}
        [violation] = gate.check(metrics, baseline)
        assert violation["reason"] == "below-min"
        assert gate.format_violation(violation).startswith("BELOW")

    def test_above_max(self, metrics):
        baseline = {"metrics": {
            "match_degree_matrix/small:best_s": {"max": 0.005}}}
        [violation] = gate.check(metrics, baseline)
        assert violation["reason"] == "above-max"
        assert gate.format_violation(violation).startswith("ABOVE")

    def test_work_counters_are_exact(self, metrics):
        baseline = {"default_tolerance": 0.0, "metrics": {
            "match_degree_matrix/small:work.batches": {"value": 47.0}}}
        [violation] = gate.check(metrics, baseline)
        assert violation["reason"] == "drift"

    @pytest.mark.parametrize("entry", [{"value": 1.0}, {"min": 1.0},
                                       {"max": 1.0}],
                             ids=["value", "min", "max"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_is_a_violation(self, entry, bad):
        [violation] = gate.check({"m": bad}, {"metrics": {"m": entry}})
        assert violation["reason"] == "non-finite"
        assert "NONFINITE" in gate.format_violation(violation)


class TestCli:
    @pytest.fixture(autouse=True)
    def _stub_scenarios(self, outcomes, tmp_path, monkeypatch):
        # Reuse the module's runs and keep every baseline under tmp_path.
        stubs = {
            name: dataclasses.replace(
                gate.SCENARIOS[name], baseline=str(tmp_path / f"{name}.json"),
                run=lambda name=name: copy.deepcopy(outcomes[name]))
            for name in DETERMINISTIC
        }
        monkeypatch.setattr(gate, "SCENARIOS", stubs)

    def break_invariant(self, monkeypatch, name):
        scenario = gate.SCENARIOS[name]
        outcome = scenario.run()
        outcome.failures.append("timeline extent 1.0 vs epoch_time 2.0")
        monkeypatch.setitem(gate.SCENARIOS, name, dataclasses.replace(
            scenario, run=lambda: outcome))

    def test_write_then_check(self, tmp_path, capsys):
        assert gate.main(["--write"]) == 0
        for name in DETERMINISTIC:
            assert (tmp_path / f"{name}.json").exists()
        assert gate.main([]) == 0
        assert "within bounds" in capsys.readouterr().out

    def test_check_fails_on_drift(self, tmp_path, capsys):
        gate.main(["obs", "--write"])
        path = tmp_path / "obs.json"
        baseline = json.loads(path.read_text())
        _, entry = first_positive(baseline)
        entry["value"] *= 2
        path.write_text(json.dumps(baseline))
        assert gate.main(["obs"]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_missing_baseline_file(self, capsys):
        assert gate.main(["obs"]) == 2
        assert "--write" in capsys.readouterr().err

    def test_check_fails_on_broken_invariant(self, monkeypatch, capsys):
        assert gate.main(["pipeline", "--write"]) == 0
        self.break_invariant(monkeypatch, "pipeline")
        assert gate.main(["pipeline"]) == 1
        assert "INVARIANT FAILED" in capsys.readouterr().err

    def test_failing_run_writes_no_baseline(self, tmp_path, monkeypatch,
                                            capsys):
        cluster = tmp_path / "cluster.json"
        cluster.write_text("untouched\n")
        self.break_invariant(monkeypatch, "cluster")
        assert gate.main(["obs", "cluster", "--write"]) == 1
        assert cluster.read_text() == "untouched\n"
        assert not (tmp_path / "obs.json").exists()
        assert "no baseline written" in capsys.readouterr().err

    def test_out_writes_snapshots_and_traces(self, tmp_path):
        out = tmp_path / "artifacts"
        assert gate.main(["obs", "serve", "--write", "--out", str(out)]) == 0
        snapshot = json.loads((out / "obs-snapshot.json").read_text())
        assert snapshot["metrics"]
        trace = json.loads((out / "serve_fastgl.json").read_text())
        assert trace["traceEvents"]
        assert (out / "serve-snapshot.json").exists()

    def test_unknown_scenario(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            gate.main(["nope"])
        assert exit_info.value.code == 2
        assert "unknown scenario" in capsys.readouterr().err
