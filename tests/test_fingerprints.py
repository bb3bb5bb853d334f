"""Decisions of the non-preemptive family at full size, checked against
the stored benchmark fingerprints.

One pass of the ``nonpreemptive-stream`` workload at seed 0 runs alg3,
alg3-partitioned and greedy-np at n=20000, m=16, and alg3-randomized at
n=20000, m=1; every output passes ``verify_schedule`` and its accept/reject
sequence and volume must hash to the reference in
``benchmarks/fingerprints.json``.
"""

import bench


def test_nonpreemptive_stream_matches_reference_fingerprints():
    workload = bench.WORKLOADS["nonpreemptive-stream"](seed=0)
    references = bench.load_references("nonpreemptive-stream", 0)
    assert set(references) == {"alg3", "alg3-partitioned", "greedy-np", "alg3-randomized"}
    stats = bench.Stats()
    bench.measure(workload, workload.setup(0), 0.0, references, stats)
    assert stats.attempted == 4
    assert stats.failed == 0
