import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest

from commitsched.cli import main
from commitsched.harness import (
    ExperimentConfig,
    random_instance,
    run,
    stress_run,
    theoretical_bounds,
    write_bound_curves,
    write_outputs,
)
from commitsched import harness, model
from commitsched.adversary import (
    NonpreemptiveAdversary,
    PreemptiveAdversary,
    preemptive_lower_bound,
    solve_c_lower,
)
from commitsched.model import InvariantError, Segment, read_instance, validate_instance, write_instance
from commitsched.nonpreemptive import CommittedStart, GreedyAllocator, NonpreemptiveSimulator, RandomizedAllocator
from commitsched.policy import ALGORITHMS
from commitsched.preemptive import PreemptiveSimulator


def _stretch_first_segment(result):
    seg = result.schedule.segments[0]
    result.schedule.segments[0] = Segment(seg.machine, seg.job, seg.start, seg.end + 1.0)
    return result


def _shift_first_start(result):
    first = result.starts[0]
    result.starts[0] = CommittedStart(first.job, first.machine, first.start - 0.5)
    return result


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

    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0, 2.0])
    def test_greedy_bounds_single_machine_only(self, eps):
        b = theoretical_bounds(1, eps)
        assert b["greedy_p_single_upper"] == (1.0 + eps) / eps
        assert b["greedy_np_single_upper"] == 2.0 + 1.0 / eps
        b = theoretical_bounds(2, eps)
        assert b["greedy_p_single_upper"] is None
        assert b["greedy_np_single_upper"] is None


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

    def test_invalid_draw_raises_under_optimisation(self, monkeypatch):
        # An explicit check, not an assert that ``python -O`` strips.
        monkeypatch.setattr(model, "validate_instance", lambda inst: ["slack"])
        with pytest.raises(InvariantError, match="invalid instance: slack"):
            random_instance(3, 1, 0.5, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n": -1}, {"slack_mix": float("nan")}, {"slack_mix": -0.1}, {"slack_mix": 1.5}],
    )
    def test_bad_size_or_slack_mix_is_rejected(self, kwargs):
        args = {"n": 3, "m": 1, "epsilon": 0.5, "seed": 0, **kwargs}
        with pytest.raises(ValueError):
            random_instance(**args)

    def test_boundary_values_are_accepted(self):
        assert len(random_instance(0, 1, 0.5, seed=0)) == 0
        assert len(random_instance(3, 1, 0.5, seed=0, slack_mix=0.0)) == 3


class TestRun:
    def test_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            config = ExperimentConfig(
                algorithm="alg3", m=2, epsilon=0.5, n=6, count=5, seed=3, oracle=True
            )
            rows, ok = run(config)
            assert ok
            write_outputs(rows, str(out), 0.5)
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
        config = ExperimentConfig(algorithm="alg1+2", instance_file=str(path), oracle=True)
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
        rows, ok, outcome = stress_run("alg1+2", 1, 1.0, delta=1.0 / 64)
        assert ok
        assert rows[0].ratio >= 2.0 - 10.0 / 64
        assert rows[0].bound == outcome.lower_bound

    @pytest.mark.parametrize(
        "alg,lower_bound",
        [
            ("alg1+2", preemptive_lower_bound),
            ("greedy-p", preemptive_lower_bound),
            ("alg3", solve_c_lower),
            ("greedy-np", solve_c_lower),
        ],
    )
    def test_stress_generator_follows_from_the_algorithm(self, alg, lower_bound):
        # At m=2, eps=0.5 the two generators target different lower bounds.
        rows, _, _ = stress_run(alg, 2, 0.5, delta=1.0 / 8)
        assert rows[0].bound == lower_bound(2, 0.5)

    @pytest.mark.parametrize("alg", ["alg1+2", "greedy-p"])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
    def test_preemptive_stress_reaches_the_bound_its_game_proves(self, alg, m):
        # The game proves lb * (1 - delta), delta the block-1 job size; once
        # lb > 10 that is below lb - 10 delta, the fixed slack this replaced.
        for eps in (1.0, 0.5, 0.25, 0.1, 0.05, 0.01):
            _, ok, outcome = stress_run(alg, m, eps)
            assert ok, (eps, outcome.ratio)
            assert outcome.ratio == pytest.approx(outcome.lower_bound * (1.0 - outcome.delta), rel=1e-12)

    def test_preemptive_stress_fails_just_below_the_bound_its_game_proves(self, monkeypatch):
        # At lb = 100 a ratio a relative 1e-5 short of lb * (1 - delta) is
        # 1e-3 short, far more than BOUND_SLACK.
        replay = harness.replay_preemptive

        def short(*args):
            outcome = replay(*args)
            return dataclasses.replace(outcome, alg_volume=outcome.alg_volume * (1.0 + 1e-5))

        monkeypatch.setattr(harness, "replay_preemptive", short)
        _, ok, outcome = stress_run("alg1+2", 1, 0.01)
        assert outcome.lower_bound == pytest.approx(100.0)
        assert outcome.ratio == pytest.approx(outcome.lower_bound * (1.0 - outcome.delta), abs=2e-3)
        assert not ok

    def test_adversary_command_passes_at_small_slack(self, capsys):
        assert main(["adversary", "--alg", "alg1+2", "--m", "1", "--epsilon", "0.01"]) == 0
        assert "lower bound reached" in capsys.readouterr().out

    @pytest.mark.parametrize("alg", ["alg3-partitioned", "alg3-randomized"])
    def test_stress_run_rejects_an_algorithm_without_a_generator(self, alg):
        with pytest.raises(ValueError, match="unsupported non-preemptive algorithm"):
            stress_run(alg, 1, 0.5)

    def test_file_run_takes_the_bound_from_the_instance(self, tmp_path):
        path = tmp_path / "inst.jsonl"
        write_instance(random_instance(10, 4, 0.5, seed=3), str(path))
        # m and epsilon are left at their defaults (1 and 1.0): the file has m=4, eps=0.5.
        rows, ok = run(ExperimentConfig(algorithm="alg1+2", instance_file=str(path), oracle=True))
        assert ok
        assert (rows[0].m, rows[0].epsilon) == (4, 0.5)
        expected = theoretical_bounds(4, 0.5)["preemptive_upper"]
        assert rows[0].bound == expected
        # `run --out` writes the curves at the file's slack.
        assert main(["run", "--alg", "alg1+2", "--instance-file", str(path), "--out", str(tmp_path / "out")]) == 0
        curves = (tmp_path / "out" / "bounds_vs_m.txt").read_text().splitlines()
        assert curves[4].split()[:2] == ["4", f"{expected:.9g}"]

    def test_five_hundred_instance_sweep_respects_bound(self):
        config = ExperimentConfig(
            algorithm="alg1+2", m=2, epsilon=1.0, n=6, count=500, seed=100, oracle=True
        )
        rows, ok = run(config)
        assert ok
        ratios = [r.ratio for r in rows if r.ratio is not None and math.isfinite(r.ratio)]
        assert len(ratios) == 500
        assert max(ratios) <= 1.65686

    def test_config_holds_only_what_run_reads(self):
        # The stress game's delta is an argument of stress_run, and the CLI writes the files.
        assert {"delta", "out_dir"}.isdisjoint(f.name for f in fields(ExperimentConfig))

    @pytest.fixture
    def randomized_draws(self, monkeypatch):
        """(seed, picked virtual machine) of every randomized policy made."""
        draws = []
        init = RandomizedAllocator.__init__

        def spy(self, machines, epsilon, seed):
            init(self, machines, epsilon, seed)
            draws.append((seed, self.pick))

        monkeypatch.setattr(RandomizedAllocator, "__init__", spy)
        return draws

    def test_each_sweep_instance_draws_its_own_virtual_machine(self, randomized_draws):
        # eps=0.1 gives 2 virtual machines; with one seed for all 8 instances every pick was 0.
        run(ExperimentConfig(algorithm="alg3-randomized", m=1, epsilon=0.1, n=20, count=8, seed=3))
        seeds, picks = zip(*randomized_draws)
        assert len(picks) == 8 and len(set(picks)) > 1
        # Random(3 + i) draws instance i; no policy seed is one of those.
        assert set(seeds).isdisjoint(range(3, 11))

    def test_file_run_gives_the_policy_the_configured_seed(self, randomized_draws, tmp_path):
        path = tmp_path / "inst.jsonl"
        write_instance(random_instance(6, 1, 0.1, seed=2), str(path))
        run(ExperimentConfig(algorithm="alg3-randomized", instance_file=str(path), seed=5))
        assert main(["verify", "--instance-file", str(path), "--alg", "alg3-randomized", "--seed", "7"]) == 0
        assert [seed for seed, _ in randomized_draws] == [5, 7]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(algorithm="nope")
        # The randomized allocator's own check refuses a second machine.
        with pytest.raises(ValueError, match="single-machine"):
            run(ExperimentConfig(algorithm="alg3-randomized", m=2))
        for count in (0, -2):
            with pytest.raises(ValueError, match="count"):
                ExperimentConfig(algorithm="alg3", count=count)
        # A file run ignores the count.
        ExperimentConfig(algorithm="alg3", count=0, instance_file="inst.jsonl")


    def test_bound_curves_write_nan_where_a_bound_is_undefined(self, tmp_path):
        # Above epsilon = 1 the non-preemptive lower bound is undefined.
        path = tmp_path / "bounds_vs_m.txt"
        write_bound_curves(str(path), 2.0, max_m=4)
        table = np.loadtxt(path)
        assert table.shape == (4, 5)
        assert np.isnan(table[:, 4]).all()
        assert np.isfinite(table[:, :4]).all()

    def test_bound_curves_have_every_row_where_the_slack_gate_fails(self, tmp_path):
        # At epsilon = 1e15, rho^(1/m) rounds to 1 from m = 10 on: those rows
        # read nan in every bound column, and the file keeps its 16 rows.
        path = tmp_path / "bounds_vs_m.txt"
        write_bound_curves(str(path), 1e15)
        table = np.loadtxt(path)
        assert table[:, 0].tolist() == list(range(1, 17))
        assert np.isfinite(table[:9, :4]).all() and np.isnan(table[9:, 1:]).all()
        # An epsilon that fails the gate at m = 1, or no rows, is an input error.
        for epsilon, max_m in ((1e300, 16), (0.5, 0), (0.5, -1)):
            with pytest.raises(ValueError):
                write_bound_curves(str(tmp_path / "none.txt"), epsilon, max_m)
        assert not (tmp_path / "none.txt").exists()


class TestCli:
    @pytest.mark.parametrize("machines,code", [(1, 0), (3, 2)])
    def test_randomized_file_run_takes_the_machine_count_from_the_file(self, tmp_path, machines, code):
        path = tmp_path / "inst.jsonl"
        gen = ["gen", "--n", "6", "--m", str(machines), "--epsilon", "0.5", "--seed", "1", "--file", str(path)]
        assert main(gen) == 0
        # --m is ignored on a file run: the allocator checks the file's machine count.
        assert main(["run", "--alg", "alg3-randomized", "--m", "2", "--instance-file", str(path)]) == code

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
                "adversary", "--alg", "alg1+2",
                "--m", "1", "--epsilon", "1.0", "--export", str(export),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "measured ratio" in out
        realized = read_instance(str(export))
        assert validate_instance(realized) == []

    @pytest.mark.parametrize(
        "alg,generator",
        [
            pytest.param("alg1+2", PreemptiveAdversary, id="preemptive-alg1+2-PreemptiveAdversary"),
            pytest.param("alg3", NonpreemptiveAdversary, id="nonpreemptive-alg3-NonpreemptiveAdversary"),
        ],
    )
    def test_adversary_command_reports_a_broken_certificate(self, alg, generator, monkeypatch, capsys):
        certificate = generator.certificate

        def broken(adv):
            volume, schedule, last, members = certificate(adv)
            schedule.segments.pop()  # a certified job loses its last piece of work
            return volume, schedule, last, members

        monkeypatch.setattr(generator, "certificate", broken)
        code = main(["adversary", "--alg", alg, "--m", "1", "--epsilon", "0.5"])
        assert code == 1
        assert "invariant violation: certificate schedule invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_verify_checks_the_schedule_of_every_algorithm(self, alg, tmp_path, monkeypatch, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--n", "12", "--m", "1", "--epsilon", "0.5", "--seed", "6", "--file", str(path)]) == 0
        checked = []
        real = model.verify_schedule

        def spy(schedule, accepted):
            checked.append(len(accepted))
            return real(schedule, accepted)

        monkeypatch.setattr(model, "verify_schedule", spy)
        assert main(["verify", "--instance-file", str(path), "--alg", alg]) == 0
        assert len(checked) == 1
        assert capsys.readouterr().out.endswith("ok\n")

    @pytest.mark.parametrize(
        "alg, simulator, corrupt",
        [
            ("alg1+2", PreemptiveSimulator, _stretch_first_segment),
            ("alg3", NonpreemptiveSimulator, _shift_first_start),
        ],
    )
    def test_run_verifies_every_schedule(self, alg, simulator, corrupt, monkeypatch, capsys):
        finish = simulator.finish
        monkeypatch.setattr(simulator, "finish", lambda sim: corrupt(finish(sim)))
        assert main(["run", "--alg", alg, "--n", "6", "--count", "3", "--oracle"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invariant violation: instance 0: the {alg} schedule fails verification: ")
        assert err.count("\n") == 1

    def test_a_policy_that_accepts_nothing_violates_its_bound(self, monkeypatch, capsys):
        # OPT > 0 and nothing accepted: the ratio is infinite, which no finite bound admits.
        monkeypatch.setattr(GreedyAllocator, "submit", lambda sim, job: sim._record(job, None, None))
        argv = ["run", "--alg", "greedy-np", "--m", "1", "--epsilon", "0.5", "--n", "6", "--count", "3", "--oracle"]
        assert main(argv) == 1
        assert "BOUND VIOLATION" in capsys.readouterr().out

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

    @pytest.mark.parametrize("header, job_id", [("2.7", "1.9"), ("true", "1")])
    def test_verify_rejects_non_integer_counts(self, header, job_id, tmp_path, capsys):
        path = tmp_path / "counts.jsonl"
        path.write_text(
            f'{{"epsilon": 1.0, "machines": {header}}}\n'
            '{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}\n'
            f'{{"id": {job_id}, "r": 0.0, "p": 1.0, "d": 4.0}}\n'
        )
        assert main(["verify", "--instance-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert "must be a JSON integer" in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize(
        "header, job",
        [
            ('{"epsilon": true, "machines": 1}', '{"id": 0, "r": "0", "p": true, "d": "5"}'),
            ('{"epsilon": 1.0, "machines": 1}', '{"id": 0, "r": "0", "p": 1.0, "d": 5.0}'),
        ],
    )
    def test_verify_rejects_non_numeric_values(self, header, job, tmp_path, capsys):
        path = tmp_path / "values.jsonl"
        path.write_text(header + "\n" + job + "\n")
        assert main(["verify", "--instance-file", str(path), "--alg", "alg3"]) == 2
        captured = capsys.readouterr()
        assert "must be a JSON number" in captured.err
        assert "ok" not in captured.out

    @pytest.mark.parametrize("command", [["verify"], ["run", "--alg", "alg1+2", "--out", "out"]], ids=["verify", "run"])
    @pytest.mark.parametrize(
        "header, job",
        [
            (f'{{"epsilon": 0.5, "machines": {10**400}}}', '{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}'),
            (f'{{"epsilon": {10**400}, "machines": 1}}', '{"id": 0, "r": 0.0, "p": 1.0, "d": 4.0}'),
            ('{"epsilon": 0.5, "machines": 1}', f'{{"id": 0, "r": 0.0, "p": 1.0, "d": {10**400}}}'),
        ],
        ids=["machines", "epsilon", "d"],
    )
    def test_file_integers_beyond_float_range_are_input_errors(self, command, header, job, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "huge.jsonl").write_text(header + "\n" + job + "\n")
        assert main([*command, "--instance-file", "huge.jsonl"]) == 2
        captured = capsys.readouterr()
        assert "beyond float range" in captured.err and captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["huge.jsonl"]

    def test_verify_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"epsilon": 1.0, "machines": 1}\n{"id": 0, "r": 0.0, "p": 1.0, "d": 1.5}\n')
        assert main(["verify", "--instance-file", str(bad)]) == 2

    def test_adversary_command_rejects_an_algorithm_without_a_generator(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["adversary", "--alg", "alg3-partitioned", "--m", "2", "--epsilon", "0.5"])
        assert exc.value.code == 2
        assert "invalid choice: 'alg3-partitioned'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "adversary --alg alg3"])
    def test_deterministic_commands_take_no_seed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--m", "2", "--epsilon", "0.5", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_gen_takes_no_output_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "3", "--file", "g.jsonl", "--out", "zzz"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --out zzz" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("m", ["1", "3"])
    @pytest.mark.parametrize("epsilon", ["1e-320", "1e-30", "0.5", "2", "1e15", "1e300"])
    @pytest.mark.parametrize(
        "command",
        [
            "bounds",
            "gen --n 6 --file inst.jsonl",
            "run --alg alg1+2 --n 6",
            "run --alg alg3 --n 6",
            "adversary --alg alg1+2 --delta 0.25",
            "adversary --alg alg3 --delta 0.25",
        ],
    )
    def test_extreme_slack_factors_leave_main_with_an_exit_code(self, command, epsilon, m, tmp_path, monkeypatch):
        # (1+eps)/eps overflows at 1e-320 and rounds to 1 at 1e300: input errors.
        # At 1e-30 the float regime of the simulators may still report a violation.
        # At 1e15 its m-th root rounds to 1 from m = 10 on, past --m but inside
        # the bound curves, which then hold nan rows.
        monkeypatch.chdir(tmp_path)
        out = [] if command.startswith("gen") else ["--out", "out"]
        code = main([*command.split(), "--m", m, "--epsilon", epsilon, *out])
        assert code == 2 if epsilon in ("1e-320", "1e300") else code in (0, 1, 2)
        written = [path for path in tmp_path.rglob("*") if path.is_file()]
        if code == 2:
            assert written == []
        if epsilon == "1e15" and command.split()[0] in ("bounds", "run"):
            assert code == 0
        curves = tmp_path / "out" / "bounds_vs_m.txt"
        if curves.exists():
            assert len(np.loadtxt(curves, ndmin=2)) == 16

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["run", "--alg", "alg3-randomized", "--m", "2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            "bounds --m 2 --epsilon 0",
            "bounds --m 0 --epsilon 0.5",
            "adversary --alg alg1+2 --m 0 --epsilon 0.5",
            "run --alg alg3 --n 4 --epsilon nan",
            "run --alg alg3 --n 4 --epsilon inf",
            "run --alg alg3 --n 4 --release-span -5",
            "gen --epsilon nan --file inst.jsonl",
            "gen --n -3 --file inst.jsonl",
            "gen --slack-mix 1.5 --file inst.jsonl",
            "run --alg alg3 --n 3 --slack-mix nan",
            "run --alg alg3 --n 3 --slack-mix -0.1",
            "run --alg alg3 --n 3 --count 0",
            "run --alg alg3 --n 3 --count -2",
            "bounds --max-m 0 --out out",
            "bounds --max-m -1 --out out",
            # A machine count beyond float range, where 1.0 / m overflows in the slack gate.
            pytest.param(f"bounds --m {10**400} --epsilon 0.5", id="bounds --m 10**400 --epsilon 0.5"),
            pytest.param(f"run --alg alg3 --n 3 --m {10**400}", id="run --alg alg3 --n 3 --m 10**400"),
            pytest.param(f"adversary --alg alg1+2 --m {10**400} --epsilon 0.5", id="adversary --alg alg1+2 --m 10**400 --epsilon 0.5"),
        ],
    )
    def test_bad_parameters_are_input_errors(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

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

    def test_wide_slack_file_warns_of_the_one_undefined_bound(self, tmp_path, capsys):
        path = tmp_path / "wide.jsonl"
        assert main(["gen", "--n", "6", "--epsilon", "2.0", "--seed", "1", "--file", str(path)]) == 0
        with pytest.warns(UserWarning, match="proves its bounds for epsilon <= 1, and nonpreemptive_lower"):
            assert main(["run", "--alg", "alg1+2", "--instance-file", str(path), "--oracle"]) == 0
        assert "bound [preemptive_upper]: 1.500000" in capsys.readouterr().out

    def test_run_on_instance_file_prints_the_instance_bound(self, tmp_path, capsys):
        path = tmp_path / "inst.jsonl"
        assert main(["gen", "--m", "4", "--epsilon", "0.5", "--n", "10", "--seed", "3", "--file", str(path)]) == 0
        assert main(["run", "--alg", "alg1+2", "--instance-file", str(path), "--oracle"]) == 0
        assert "bound [preemptive_upper]: 1.896444" in capsys.readouterr().out

    @pytest.mark.parametrize("alg, n, limit", [("alg3", 20, 10), ("alg1+2", 17, 16)])
    def test_run_beyond_the_oracle_limit_checks_no_bound(self, alg, n, limit, capsys):
        assert main(["run", "--alg", alg, "--n", str(n), "--count", "2", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert f"no optimum for 2 of 2 instances: the {alg} oracle enumerates at most {limit} jobs" in out
        assert "no bound checked" in out and "all bounds held" not in out

    def test_run_reports_held_bounds_only_when_checked(self, capsys):
        assert main(["run", "--alg", "alg3", "--n", "6", "--count", "2", "--oracle"]) == 0
        out = capsys.readouterr().out
        assert "all bounds held" in out and "no optimum" not in out
        assert main(["run", "--alg", "alg3", "--n", "6"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "no bound checked"
