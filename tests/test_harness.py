import math

import pytest

from commitsched.cli import main
from commitsched.harness import (
    ExperimentConfig,
    random_instance,
    run,
    theoretical_bounds,
)
from commitsched import cli
from commitsched.model import read_instance, validate_instance, write_instance
from commitsched.nonpreemptive import CommittedStart, NonpreemptiveSimulator
from commitsched.policy import ALGORITHMS


class TestTheoreticalBounds:
    def test_single_machine_unit_slack(self):
        b = theoretical_bounds(1, 1.0)
        assert b["preemptive_upper"] == pytest.approx(2.0)
        assert b["preemptive_lower"] == pytest.approx(2.0)
        assert b["nonpreemptive_upper"] == pytest.approx(3.0)
        assert b["nonpreemptive_lower"] == pytest.approx(2.0)

    def test_two_machine_unit_slack(self):
        b = theoretical_bounds(2, 1.0)
        assert b["preemptive_upper"] == pytest.approx(4 * (math.sqrt(2) - 1))
        assert b["preemptive_lower"] == pytest.approx(4 * (math.sqrt(2) - 1))
        assert b["nonpreemptive_upper"] == pytest.approx(2 * math.sqrt(2) + 1)
        assert b["nonpreemptive_lower"] == pytest.approx(2.0, abs=1e-9)

    def test_single_machine_bound_equals_slack_ratio(self):
        for eps in (0.1, 0.5, 1.0):
            b = theoretical_bounds(1, eps)
            assert b["preemptive_upper"] == pytest.approx((1 + eps) / eps, rel=1e-12)

    def test_asymptote_reported(self):
        b = theoretical_bounds(64, 1.0)
        assert b["preemptive_upper_asymptote"] == pytest.approx(2 * math.log(2))
        assert b["preemptive_upper"] > b["preemptive_upper_asymptote"]
        assert b["preemptive_upper"] == pytest.approx(b["preemptive_upper_asymptote"], rel=0.01)

    def test_partitioned_bound_only_when_applicable(self):
        eps = 1.0 / (math.e**2 - 1.0)
        assert theoretical_bounds(4, eps)["partitioned_upper"] == pytest.approx(2 * math.e + 1)
        assert theoretical_bounds(3, eps)["partitioned_upper"] is None
        assert theoretical_bounds(4, 1.0)["partitioned_upper"] is None

    def test_randomized_bound_single_machine_only(self):
        eps = 1.0 / (math.e**2 - 1.0)
        b = theoretical_bounds(1, eps)
        assert b["randomized_single_upper"] == pytest.approx(4 * math.e + 2)
        assert theoretical_bounds(2, eps)["randomized_single_upper"] is None


class TestRandomInstance:
    def test_deterministic_under_seed(self, tmp_path):
        a = random_instance(10, 2, 0.5, seed=42)
        b = random_instance(10, 2, 0.5, seed=42)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_instance(a, str(pa))
        write_instance(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_all_tight_when_mix_is_one(self):
        inst = random_instance(20, 1, 0.5, seed=1, slack_mix=1.0)
        for job in inst.jobs:
            assert job.deadline - job.release == pytest.approx(1.5 * job.processing)

    def test_generated_instances_validate(self):
        for seed in range(10):
            inst = random_instance(8, 3, 0.1, seed=seed)
            assert validate_instance(inst) == []


class TestRun:
    def test_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            config = ExperimentConfig(
                algorithm="alg3", m=2, epsilon=0.5, n=6, count=5, seed=3,
                oracle=True, out_dir=str(out),
            )
            rows, ok = run(config)
            assert ok
        assert (out1 / "ratios.csv").read_bytes() == (out2 / "ratios.csv").read_bytes()

    def test_ratio_times_alg_equals_opt(self):
        config = ExperimentConfig(algorithm="alg1+2", m=1, epsilon=1.0, n=5, count=8, seed=9, oracle=True)
        rows, ok = run(config)
        assert ok
        for row in rows:
            if row.ratio is not None and math.isfinite(row.ratio) and row.alg_volume > 0:
                assert row.ratio * row.alg_volume == pytest.approx(row.opt_volume, rel=1e-9)

    def test_empty_instance_ratio_convention(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"epsilon": 1.0, "machines": 1}\n')
        config = ExperimentConfig(
            algorithm="alg1+2", source="file", instance_file=str(path), oracle=True
        )
        rows, ok = run(config)
        assert ok
        assert rows[0].alg_volume == 0.0
        assert rows[0].ratio == 1.0

    def test_bounds_hold_on_small_sweep(self):
        for alg in ("alg1+2", "alg3"):
            config = ExperimentConfig(
                algorithm=alg, m=2, epsilon=1.0, n=6, count=20, seed=17, oracle=True
            )
            rows, ok = run(config)
            assert ok, f"{alg} exceeded its bound"

    def test_adversary_source(self):
        config = ExperimentConfig(
            algorithm="alg1+2", m=1, epsilon=1.0, source="adversary",
            adversary_family="preemptive", delta=1.0 / 64,
        )
        rows, ok = run(config)
        assert ok
        assert rows[0].ratio >= 2.0 - 10.0 / 64

    def test_five_hundred_instance_sweep_respects_bound(self):
        config = ExperimentConfig(
            algorithm="alg1+2", m=2, epsilon=1.0, n=6, count=500, seed=100, oracle=True
        )
        rows, ok = run(config)
        assert ok
        ratios = [r.ratio for r in rows if r.ratio is not None and math.isfinite(r.ratio)]
        assert len(ratios) == 500
        assert max(ratios) <= 1.65686

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="nope")
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg3-randomized", m=2)
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="alg3", source="file")


class TestCli:
    def test_gen_and_verify_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--n", "6", "--m", "2", "--epsilon", "0.5", "--seed", "4", "--file", str(path)]) == 0
        inst = read_instance(str(path))
        assert len(inst) == 6
        assert main(["verify", "--instance-file", str(path), "--alg", "alg1+2", "--assert-level", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_bounds_command(self, capsys):
        assert main(["bounds", "--m", "2", "--epsilon", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "preemptive_upper" in out
        assert "1.656854249" in out

    def test_run_command_writes_outputs(self, tmp_path, capsys):
        code = main(
            [
                "run", "--alg", "alg3", "--m", "2", "--epsilon", "1.0",
                "--n", "5", "--count", "4", "--seed", "2", "--oracle",
                "--out", str(tmp_path / "exp"),
            ]
        )
        assert code == 0
        assert (tmp_path / "exp" / "ratios.csv").exists()
        assert (tmp_path / "exp" / "bounds_vs_m.txt").exists()
        assert (tmp_path / "exp" / "ratio_hist.txt").exists()

    def test_adversary_command(self, tmp_path, capsys):
        export = tmp_path / "realized.jsonl"
        code = main(
            [
                "adversary", "--family", "preemptive", "--alg", "alg1+2",
                "--m", "1", "--epsilon", "1.0", "--export", str(export),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured ratio" in out
        realized = read_instance(str(export))
        assert validate_instance(realized) == []

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_verify_checks_the_schedule_of_every_algorithm(self, alg, tmp_path, monkeypatch, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--n", "12", "--m", "1", "--epsilon", "0.5", "--seed", "6", "--file", str(path)]) == 0
        checked = []
        real = cli.verify_schedule

        def spy(schedule, accepted):
            checked.append(len(accepted))
            return real(schedule, accepted)

        monkeypatch.setattr(cli, "verify_schedule", spy)
        assert main(["verify", "--instance-file", str(path), "--alg", alg]) == 0
        assert len(checked) == 1
        assert capsys.readouterr().out.endswith("ok\n")

    def test_verify_reports_a_corrupted_start(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--n", "8", "--m", "2", "--epsilon", "0.5", "--seed", "4", "--file", str(path)]) == 0
        finish = NonpreemptiveSimulator.finish

        def corrupted(sim):
            result = finish(sim)
            first = result.starts[0]
            result.starts[0] = CommittedStart(first.job, first.machine, first.start + 100.0)
            return result

        monkeypatch.setattr(NonpreemptiveSimulator, "finish", corrupted)
        assert main(["verify", "--instance-file", str(path), "--alg", "alg3"]) == 1
        assert "deadline" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("job", ['"r": 0.0, "p": NaN, "d": 4.0', '"r": 0.0, "p": Infinity, "d": Infinity'])
    def test_verify_rejects_non_finite_input(self, alg, job, tmp_path, capsys):
        path = tmp_path / "nonfinite.jsonl"
        path.write_text('{"epsilon": 1.0, "machines": 1}\n{"id": 0, ' + job + "}\n")
        assert main(["verify", "--instance-file", str(path), "--alg", alg]) == 2
        captured = capsys.readouterr()
        assert "finite" in captured.err
        assert "ok" not in captured.out

    def test_verify_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"epsilon": 1.0, "machines": 1}\n{"id": 0, "r": 0.0, "p": 1.0, "d": 1.5}\n')
        assert main(["verify", "--instance-file", str(bad)]) == 2

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["run", "--alg", "alg3-randomized", "--m", "2"]) == 2

    def test_run_on_instance_file(self, tmp_path, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--n", "7", "--m", "1", "--epsilon", "1.0", "--seed", "5", "--file", str(path)]) == 0
        code = main(
            ["run", "--alg", "alg1+2", "--m", "1", "--epsilon", "1.0",
             "--instance-file", str(path), "--oracle", "--assert-level", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max ratio" in out
