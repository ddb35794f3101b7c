"""Static DSM lint: unit checks, fixture coverage, shipped apps clean."""

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import lint_file, lint_paths, lint_source

REPO = Path(__file__).resolve().parents[2]
FIXTURE = Path(__file__).parent / "fixtures" / "bad_app.py"
GEN_FIXTURE = Path(__file__).parent / "fixtures" / "bad_app_gen.py"
APPS = REPO / "src" / "repro" / "apps"


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# Unit: lint_source on small snippets
# ----------------------------------------------------------------------
class TestStaleViews:
    def test_view_used_after_barrier(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = grid.read()\n"
            "    tmk.barrier(0)\n"
            "    return view.sum()\n")
        assert codes(findings) == ["DSM001"]
        assert "barrier() at line 3" in findings[0].message
        assert "read at line 2" in findings[0].message
        # The generator form every application body uses.
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read_g()\n"
            "    yield from tmk.barrier_g(0)\n"
            "    return view.sum()\n")
        assert codes(findings) == ["DSM001"]
        assert "barrier() at line 3" in findings[0].message

    def test_view_used_after_lock_release(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    tmk.lock_acquire(0)\n"
            "    view = grid.read()\n"
            "    tmk.lock_release(0)\n"
            "    return view[0]\n")
        assert codes(findings) == ["DSM001"]
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    yield from tmk.lock_acquire_g(0)\n"
            "    view = yield from grid.read_racy_g()\n"
            "    yield from tmk.lock_release_g(0)\n"
            "    return view[0]\n")
        assert codes(findings) == ["DSM001"]

    def test_reread_clears_staleness(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = grid.read()\n"
            "    tmk.barrier(0)\n"
            "    view = grid.read()\n"
            "    return view.sum()\n")
        assert findings == []
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = yield from grid.read_g()\n"
            "    yield from tmk.barrier_g(0)\n"
            "    view = yield from grid.read_g()\n"
            "    return view.sum()\n")
        assert findings == []

    def test_rebind_to_plain_value_stops_tracking(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = grid.read()\n"
            "    view = 0.0\n"
            "    tmk.barrier(0)\n"
            "    return view\n")
        assert findings == []

    def test_copy_is_not_tracked(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    snap = grid.read().copy()\n"
            "    tmk.barrier(0)\n"
            "    return snap.sum()\n")
        assert findings == []

    def test_loop_carried_staleness(self):
        # The sync at the bottom of the loop body staleness-marks the use
        # at the top of the next iteration; a single pass would miss it.
        findings = lint_source(
            "def f(tmk, grid, n):\n"
            "    for it in range(n):\n"
            "        view = grid.read()\n"
            "        total = view.sum()\n"
            "        tmk.barrier(it)\n"
            "        total += view.sum()\n"
            "    return total\n")
        assert codes(findings) == ["DSM001"]

    def test_use_before_sync_is_fine(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = grid.read()\n"
            "    total = view.sum()\n"
            "    tmk.barrier(0)\n"
            "    return total\n")
        assert findings == []

    def test_subscript_of_shared_array_is_a_view(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    grid = tmk.shared_array('g', (8,), float)\n"
            "    row = grid[0]\n"
            "    tmk.barrier(0)\n"
            "    return row\n")
        assert codes(findings) == ["DSM001"]

    def test_sync_in_either_branch_marks_stale(self):
        findings = lint_source(
            "def f(tmk, grid, cond):\n"
            "    view = grid.read()\n"
            "    if cond:\n"
            "        tmk.barrier(0)\n"
            "    return view.sum()\n")
        assert codes(findings) == ["DSM001"]

    def test_one_finding_per_view_per_sync(self):
        findings = lint_source(
            "def f(tmk, grid):\n"
            "    view = grid.read()\n"
            "    tmk.barrier(0)\n"
            "    a = view.sum()\n"
            "    b = view.sum()\n"
            "    return a + b\n")
        assert codes(findings) == ["DSM001"]


class TestOtherCodes:
    def test_write_into_view(self):
        findings = lint_source(
            "def f(grid):\n"
            "    row = grid.read()\n"
            "    row[0] = 1.0\n")
        assert codes(findings) == ["DSM002"]

    def test_augmented_write_into_view(self):
        findings = lint_source(
            "def f(grid):\n"
            "    row = grid.read()\n"
            "    row[0] += 1.0\n")
        assert codes(findings) == ["DSM002"]
        assert "add_g()" in findings[0].message

    def test_direct_shared_array_construction(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    return SharedArray(tmk, 0, (4,), float)\n")
        assert codes(findings) == ["DSM003"]

    def test_view_escaping_to_attribute(self):
        findings = lint_source(
            "def f(self, grid):\n"
            "    view = grid.read()\n"
            "    self.cached = view\n")
        assert codes(findings) == ["DSM004"]

    def test_shared_array_write_method_is_fine(self):
        findings = lint_source(
            "def f(tmk):\n"
            "    grid = tmk.shared_array('g', (8,), float)\n"
            "    grid.write(0, 1.0)\n"
            "    grid[0] = 1.0\n"  # a store on the array, not a view
            "    grid.add(1, 2.0)\n"
            "    yield from grid.write_g(0, 1.0)\n"
            "    yield from grid.add_g(1, 2.0)\n")
        assert findings == []


# ----------------------------------------------------------------------
# Fixture and shipped apps
# ----------------------------------------------------------------------
class TestCorpus:
    def test_fixture_triggers_every_code(self):
        for fixture in (FIXTURE, GEN_FIXTURE):
            findings = lint_file(fixture)
            assert sorted({f.code for f in findings}) == [
                "DSM001", "DSM002", "DSM003", "DSM004"], fixture.name

    def test_shipped_apps_are_clean(self):
        assert lint_paths([APPS]) == []


# ----------------------------------------------------------------------
# Standalone tool
# ----------------------------------------------------------------------
class TestTool:
    TOOL = REPO / "tools" / "lint_dsm.py"

    def test_exit_zero_on_clean_tree(self):
        proc = subprocess.run([sys.executable, str(self.TOOL), str(APPS)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == ""

    def test_exit_nonzero_on_fixture(self):
        proc = subprocess.run([sys.executable, str(self.TOOL), str(FIXTURE)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert "DSM001" in proc.stdout
        assert "finding(s)" in proc.stderr

    def test_missing_path_is_a_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(self.TOOL), "no/such/file.py"],
            capture_output=True, text=True)
        assert proc.returncode == 2
