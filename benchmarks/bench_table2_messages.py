"""Table 2: Messages and Data at 8 Processors.

Regenerates the paper's Table 2 -- per configuration, total messages and
kilobytes for TreadMarks (UDP datagrams, payload plus protocol headers)
and PVM (user-level messages, user data).  The structural relations the
paper derives from this table are asserted:

* TreadMarks sends more messages than PVM everywhere (separation of
  synchronization and data transfer, request/response data movement);
* TreadMarks sends *less* data than PVM for SOR-Zero (empty diffs);
* TreadMarks sends about ``n*(n-1) / (2*(n-1))`` times PVM's data for
  IS-Large (diff accumulation on migratory data);
* TreadMarks sends about the *same* data as PVM for the 3-D FFT (release
  consistency ships exactly the written words).
"""

from _common import PRESET, emit, live_run

from repro import api
from repro.bench import harness, tables


def test_table2_messages_and_data(benchmark, capsys):
    benchmark.pedantic(lambda: live_run("fig05", "tmk"),
                       rounds=1, iterations=1)
    report = tables.render_table2(preset=PRESET)
    emit(capsys, "table2", report)

    for exp_id in harness.EXPERIMENTS:
        tmk_msgs, tmk_kb = api.messages_at(exp_id, "tmk", 8, PRESET)
        pvm_msgs, pvm_kb = api.messages_at(exp_id, "pvm", 8, PRESET)
        assert tmk_msgs > pvm_msgs, harness.EXPERIMENTS[exp_id].label

    _, sor_zero_tmk_kb = api.messages_at("fig02", "tmk", 8, PRESET)
    _, sor_zero_pvm_kb = api.messages_at("fig02", "pvm", 8, PRESET)
    assert sor_zero_tmk_kb < sor_zero_pvm_kb, \
        "SOR-Zero: TreadMarks should ship less data (empty diffs)"

    _, is_large_tmk_kb = api.messages_at("fig05", "tmk", 8, PRESET)
    _, is_large_pvm_kb = api.messages_at("fig05", "pvm", 8, PRESET)
    ratio = is_large_tmk_kb / is_large_pvm_kb
    assert 3.0 <= ratio <= 5.5, \
        f"IS-Large data ratio {ratio:.2f}, expected ~n/2 = 4"

    _, fft_tmk_kb = api.messages_at("fig11", "tmk", 8, PRESET)
    _, fft_pvm_kb = api.messages_at("fig11", "pvm", 8, PRESET)
    ratio = fft_tmk_kb / fft_pvm_kb
    assert 0.7 <= ratio <= 1.6, \
        f"3D-FFT data ratio {ratio:.2f}, expected ~1 (same data as PVM)"
