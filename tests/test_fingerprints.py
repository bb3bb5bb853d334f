"""Decisions at full size, checked against the stored benchmark fingerprints.

One pass of a workload at seed 0 runs it at the benchmark's own size; every
output passes its checks (``verify_schedule``, the row bounds, the replay
re-runs) and its accept/reject sequence and volume must hash to the
reference in ``benchmarks/fingerprints.json``:

- ``preemptive-stream`` runs alg1+2 and greedy-p through ``submit`` on two
  instances at n=2500, m=8;
- ``nonpreemptive-stream`` runs alg3, alg3-partitioned and greedy-np at
  n=20000, m=16, and alg3-randomized at n=20000, m=1;
- ``oracle-sweep`` runs 150 sweep steps, each an alg3 row at n=10 and an
  alg1+2 row at n=14 with the exact oracles, at m=2;
- ``stress-checked`` replays both stress generators against the four
  algorithms they drive at m=8, and alg1+2 on three n=1000 instances, all
  at assert level 2.
"""

import bench


def _one_pass(workload: str) -> set[str]:
    """Run one pass at seed 0 and assert that no operation failed and that
    the run produced, and so compared, every stored fingerprint; returns
    the fingerprint keys."""
    work = bench.WORKLOADS[workload](seed=0)
    references = bench.load_references(workload, 0)
    stats = bench.Stats()
    bench.measure(work, work.setup(0), 0.0, references, stats)
    assert stats.failed == 0
    assert set(stats.fingerprints) == set(references)
    return set(references)


def test_preemptive_stream_matches_reference_fingerprints():
    assert _one_pass("preemptive-stream") == {"alg1+2/0", "alg1+2/1", "greedy-p/0", "greedy-p/1"}


def test_nonpreemptive_stream_matches_reference_fingerprints():
    assert _one_pass("nonpreemptive-stream") == {"alg3", "alg3-partitioned", "greedy-np", "alg3-randomized"}


def test_oracle_sweep_matches_reference_fingerprints():
    assert _one_pass("oracle-sweep") == {"rows#0"}


def test_stress_checked_matches_reference_fingerprints():
    replays = {f"replay-{a}" for a in ("alg1+2", "greedy-p", "alg3", "greedy-np")}
    checked = {f"alg1+2-checked/{k}" for k in range(3)}
    assert _one_pass("stress-checked") == replays | checked
