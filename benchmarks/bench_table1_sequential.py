"""Table 1: Sequential Time of Applications.

Regenerates the paper's Table 1 -- for every configuration, the problem
size and the execution time of the sequential program (no PVM or
TreadMarks calls), which is the baseline for every speedup figure.
"""

from _common import PRESET, emit

from repro import api
from repro.bench import harness, tables


def test_table1_sequential_times(benchmark, capsys):
    # The timed unit: the heaviest sequential run in the table.
    benchmark.pedantic(lambda: api.seq_time("fig06", PRESET, use_cache=False),
                       rounds=1, iterations=1)
    report = tables.render_table1(preset=PRESET)
    emit(capsys, "table1", report)
    # Every configuration must produce a positive sequential time.
    for exp_id in harness.EXPERIMENTS:
        assert api.seq_time(exp_id, PRESET) > 0.0
