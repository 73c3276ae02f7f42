"""Parts of a run on forked worker processes (``oneill_lab.fanout``).

``cli._map_blocks`` cuts a sample's points into contiguous ranges, one per
usable CPU with enough work (curvature entries on a plain space form,
random probe rows on a submersion), and runs each block's whole pipeline.
Points are independent, so the reports are byte-identical to those of one
process; an error is the one the first failing block in sample order
raises there; and no worker outlives a run.
"""

import errno
import os
import time

import numpy as np
import pytest

from oneill_lab import cli, fanout, theorems
from oneill_lab.cli import main
from oneill_lab.contact import build_r2m1, space_form_data
from oneill_lab.errors import DegenerateFrameError, DegenerateMetricError
from oneill_lab.riemannian import point_blocks
from oneill_lab.sampling import SampleConfig, sample_model_points
from oneill_lab.theorems import TheoremTable

# SIGKILL on every POSIX system
SIGKILL = 9


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _cpus(monkeypatch, n):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: n)


def _verify(tmp_path, name, m, seed, points=400):
    out = tmp_path / f"{name}.json"
    argv = ["verify", "--model", f"r2m1:{m}", "--points", str(points),
            "--seed", str(seed), "--no-timestamp", "--out", str(out)]
    return main(argv), out


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _record_ranges(monkeypatch):
    """The point ranges each ``_map_blocks`` call hands to ``map_parts``."""
    ranges = []
    map_parts = cli.map_parts

    def recorded(fn, parts):
        ranges.append(list(parts))
        return map_parts(fn, parts)

    monkeypatch.setattr(cli, "map_parts", recorded)
    return ranges


def _points(count):
    """``count`` points in R^7, 2,401 curvature entries each, each point's
    first coordinate its index: 156 of them are just less work than two
    workers' least (375,000 entries), and 157 just more, so 15 tens of
    points stay in one process and 16 tens fork."""
    assert 156 * 7**4 < 2 * cli._MIN_ENTRIES_PER_WORKER <= 157 * 7**4
    pts = np.zeros((count, 7))
    pts[:, 0] = np.arange(count)
    return pts


def _map_points(fn, pts):
    return cli._map_blocks(fn, pts, 4, 7**4, cli._MIN_ENTRIES_PER_WORKER)


def _first(start, block):
    return start, int(block[0, 0]), len(block), os.getpid()


def _starts(ranges, size=27):
    """The first point of each block: ``point_blocks`` cuts each range of
    points in R^7 into blocks of 27."""
    return [i for a, b in ranges for i in range(a, b, size)]


class TestMapBlocks:
    @pytest.mark.parametrize("cpus, tens, workers", [(2, 16, 2), (3, 25, 3), (4, 23, 2)])
    def test_contiguous_parts_in_order(self, monkeypatch, cpus, tens, workers):
        _cpus(monkeypatch, cpus)
        ranges = _record_ranges(monkeypatch)
        points = 10 * tens
        got = _map_points(_first, _points(points))
        cuts = [points * i // workers for i in range(workers + 1)]
        assert ranges == [list(zip(cuts, cuts[1:]))]
        # each block is handed its first point's index, and the blocks
        # cover the sample in order
        assert [start for start, *_ in got] == _starts(ranges[0])
        assert [first for _, first, *_ in got] == _starts(ranges[0])
        assert sum(size for _, _, size, _ in got) == points
        pids = [pid for *_, pid in got]
        assert pids[0] == os.getpid()
        # each process took one contiguous range of points
        runs = [pids[0]] + [b for a, b in zip(pids, pids[1:]) if a != b]
        assert len(runs) == len(set(runs)) == workers

    @pytest.mark.parametrize("cpus, tens", [(1, 100), (2, 15), (8, 15)])
    def test_too_few_blocks_or_cpus_stay_in_process(self, monkeypatch, cpus, tens):
        _cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        points = 10 * tens
        got = _map_points(_first, _points(points))
        starts = _starts([(0, points)])
        blocks = list(point_blocks(_points(points), 7))
        assert got == [(i, i, len(b), os.getpid()) for i, b in zip(starts, blocks, strict=True)]
        assert forks == []

    def test_usable_cpus_is_the_affinity_mask(self):
        assert fanout.usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize(
        "size, units, ranges",
        [(3, 10**6, [(0, 1), (1, 2), (2, 3)]), (64, 512, [(0, 16), (16, 32), (32, 48), (48, 64)]),
         (64, 255, [(0, 64)]), (5, 0, [(0, 5)])],
    )
    def test_split_is_bounded_by_size_and_units(self, monkeypatch, size, units, ranges):
        _cpus(monkeypatch, 8)
        assert fanout.split(size, units, 128) == ranges


class TestForkedReports:
    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("seed", [42, 1234])
    def test_byte_identical_to_one_process(self, tmp_path, monkeypatch, capsys, m, seed):
        _cpus(monkeypatch, 1)
        code, want = _verify(tmp_path, "one", m, seed)
        assert code == 0
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        code, got = _verify(tmp_path, "forked", m, seed)
        assert code == 0
        assert len(forks) == 1
        capsys.readouterr()
        assert got.read_bytes() == want.read_bytes()


def _sample(m, points=400, seed=42):
    spec = build_r2m1(m)
    return sample_model_points(spec.model, SampleConfig(points=points, seed=seed))


class TestWorkerFailures:
    """r2m1:3 on 400 points: cut at point 200, so points 0-199 are this
    process's and 200-399 a worker's, each range in 8 blocks of 27 points
    (the last of 11)."""

    def _failing_at(self, monkeypatch, rows):
        bad = _sample(3)[rows]

        def fails(spec, block):
            for row in bad:
                if (block == row).all(axis=1).any():
                    raise DegenerateMetricError(f"refused the point {row.tolist()}")
            return space_form_data(spec, block)

        monkeypatch.setattr(cli, "space_form_data", fails)

    def _run(self, tmp_path, monkeypatch, capsys, cpus):
        _cpus(monkeypatch, cpus)
        code, out = _verify(tmp_path, f"cpus{cpus}", 3, 42)
        err = capsys.readouterr().err
        assert not out.exists()
        return code, err

    @pytest.mark.parametrize(
        "rows",
        [[300], [390, 300], [50], [300, 50], [199, 200]],
        ids=["worker", "worker-twice", "parent", "both", "either-side-of-the-cut"],
    )
    def test_same_error_and_exit_code_as_one_process(self, tmp_path, monkeypatch, capsys, rows):
        self._failing_at(monkeypatch, rows)
        want = self._run(tmp_path, monkeypatch, capsys, 1)
        got = self._run(tmp_path, monkeypatch, capsys, 2)
        assert got == want
        code, err = got
        first = _sample(3)[min(rows)].tolist()
        assert code == 7
        assert err == f"error: DegenerateMetricError: refused the point {first}\n"

    def test_cut_is_where_the_docstring_says(self, monkeypatch):
        _cpus(monkeypatch, 2)
        assert fanout.split(400, 400 * 7**4, cli._MIN_ENTRIES_PER_WORKER) == [(0, 200), (200, 400)]
        blocks = list(point_blocks(_sample(3)[:200], 7))
        assert [len(b) for b in blocks] == [27] * 7 + [11]

    def test_killed_worker_part_is_recomputed(self, tmp_path, monkeypatch, capsys):
        _cpus(monkeypatch, 1)
        code, want = _verify(tmp_path, "one", 3, 42)
        assert code == 0
        parent = os.getpid()
        here = []

        def dies_in_a_worker(spec, block):
            if os.getpid() != parent:
                os.kill(os.getpid(), SIGKILL)
            here.append(len(block))
            return space_form_data(spec, block)

        monkeypatch.setattr(cli, "space_form_data", dies_in_a_worker)
        _cpus(monkeypatch, 2)
        code, got = _verify(tmp_path, "forked", 3, 42)
        capsys.readouterr()
        assert code == 0
        assert got.read_bytes() == want.read_bytes()
        # this process evaluated its own 8 blocks and then the worker's 8
        assert here == ([27] * 7 + [11]) * 2

    def test_worker_that_cannot_be_forked_has_its_part_done_here(
        self, tmp_path, monkeypatch, capsys
    ):
        _cpus(monkeypatch, 1)
        code, want = _verify(tmp_path, "one", 4, 7)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        assert _verify(tmp_path, "here", 4, 7)[0] == code
        capsys.readouterr()
        assert (tmp_path / "here.json").read_bytes() == want.read_bytes()

    def test_worker_that_cannot_have_a_pipe_has_its_part_done_here(
        self, tmp_path, monkeypatch, capsys
    ):
        _cpus(monkeypatch, 1)
        code, want = _verify(tmp_path, "one", 3, 42)

        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "pipe", no_pipe)
        forks = _count_forks(monkeypatch)
        assert _verify(tmp_path, "here", 3, 42)[0] == code == 0
        capsys.readouterr()
        assert forks == []
        assert (tmp_path / "here.json").read_bytes() == want.read_bytes()

    def test_parent_error_kills_a_running_worker(self, monkeypatch):
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        parent = os.getpid()

        def fn(start, b):
            if start == 0:
                raise DegenerateMetricError("block 0")
            if os.getpid() != parent:
                time.sleep(60)  # a worker still busy when this process fails
            return b

        start = time.monotonic()
        with pytest.raises(DegenerateMetricError, match="block 0"):
            _map_points(fn, _points(157))
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        # the fixture checks that the worker was reaped
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)


def test_points_per_block_bound_the_forked_sweep(monkeypatch):
    # the sweep's d = 3 and 5 samples stay in one process, d = 7 and 9 fork
    # at point 200, and each range is cut into blocks
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    ranges = _record_ranges(monkeypatch)
    sizes, forked = {}, {}
    for m in (1, 2, 3, 4):
        d = 2 * m + 1
        before = len(forks)
        lens = cli._map_blocks(lambda start, b: len(b), _sample(m), 4, d**4,
                               cli._MIN_ENTRIES_PER_WORKER)
        sizes[m] = (ranges[-1], len(lens), lens[0], lens[-1])
        forked[m] = len(forks) - before
    halves = [(0, 200), (200, 400)]
    assert sizes == {
        1: ([(0, 400)], 1, 400, 400),
        2: ([(0, 400)], 4, 104, 88),
        3: (halves, 16, 27, 11),
        4: (halves, 46, 9, 2),
    }
    assert forked == {1: 0, 2: 0, 3: 1, 4: 1}


def test_verify_at_700_points_cuts_at_point_350(tmp_path, monkeypatch, capsys):
    # r2m1:2 (d = 5) at 700 points holds 437,500 curvature entries, two
    # workers' worth; the cut halves the points, not the 7 blocks of 104
    _cpus(monkeypatch, 1)
    code, want = _verify(tmp_path, "one", 2, 42, points=700)
    assert code == 0
    _cpus(monkeypatch, 2)
    ranges = _record_ranges(monkeypatch)
    code, got = _verify(tmp_path, "forked", 2, 42, points=700)
    capsys.readouterr()
    assert code == 0
    assert ranges == [[(0, 350), (350, 700)]]
    assert got.read_bytes() == want.read_bytes()


SUBMERSION_MODELS = ("vertical-xi", "horizontal-xi", "models/reeb_fiber.json")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _theorems(tmp_path, name, model, points, seed, probe="random:64", command="theorems"):
    out = tmp_path / f"{name}.json"
    argv = [command, "--model", os.path.join(REPO, model) if model.endswith(".json") else model,
            "--points", str(points), "--seed", str(seed), "--probe", probe,
            "--no-timestamp", "--out", str(out)]
    return main(argv), out


def _joined(values):
    """One field of a theorem's block tables over the whole sample: arrays
    joined along the point axis, other values (the id, variant names and
    equality class, or None) the same in every block."""
    if isinstance(values[0], np.ndarray):
        return np.concatenate(values)
    assert all(v == values[0] for v in values)
    return values[0]


class TestForkedScans:
    """A submersion run with random probes on a forked worker: at 8 points
    and 64 probes a scan has 512 probe rows, so on 2 CPUs each process
    takes 4 points and runs each block's whole pipeline on them."""

    @pytest.mark.parametrize("model", SUBMERSION_MODELS)
    @pytest.mark.parametrize("points", [8, 23])
    @pytest.mark.parametrize("seed", [42, 1234])
    def test_byte_identical_to_one_process(
        self, tmp_path, monkeypatch, capsys, model, points, seed
    ):
        _cpus(monkeypatch, 1)
        want_code, want = _theorems(tmp_path, "one", model, points, seed)
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        code, got = _theorems(tmp_path, "forked", model, points, seed)
        capsys.readouterr()
        assert code == want_code
        assert len(forks) == 1
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("model", SUBMERSION_MODELS)
    @pytest.mark.parametrize("points", [8, 23])
    def test_block_tables_equal_one_process_tables(
        self, tmp_path, monkeypatch, capsys, model, points
    ):
        # the block tables handed to scan_from_records, each field joined
        # along the point axis: at 23 points one process makes blocks of
        # 10, 10 and 3 points, and two make 10 and 1, then 10 and 2
        reduce = cli.scan_from_records
        tables = {}

        def recorded(tid, blocks, points_checked):
            tables[cpus][tid] = blocks
            return reduce(tid, blocks, points_checked)

        monkeypatch.setattr(cli, "scan_from_records", recorded)
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            tables[cpus] = {}
            _theorems(tmp_path, f"cpus{cpus}", model, points, 42)
        capsys.readouterr()
        assert tables[1].keys() == tables[2].keys() and tables[1]
        for tid, want in tables[1].items():
            got = tables[2][tid]
            assert [len(t.point) for t in want] == ([8] if points == 8 else [10, 10, 3])
            assert [len(t.point) for t in got] == ([4, 4] if points == 8 else [10, 1, 10, 2])
            for name in TheoremTable._fields:
                a, b = (_joined([getattr(t, name) for t in side]) for side in (want, got))
                if isinstance(a, np.ndarray):
                    assert a.shape == b.shape and a.dtype == b.dtype, (tid, name)
                    assert a.tobytes() == b.tobytes(), (tid, name)
                else:
                    assert a == b, (tid, name)

    @pytest.mark.parametrize("model", SUBMERSION_MODELS)
    @pytest.mark.parametrize("probe", ["first", "all"])
    def test_report_with_frame_probes_forks_nothing(
        self, tmp_path, monkeypatch, capsys, model, probe
    ):
        _cpus(monkeypatch, 8)
        forks = _count_forks(monkeypatch)
        _theorems(tmp_path, "report", model, 6, 42, probe=probe, command="report")
        capsys.readouterr()
        assert forks == []

    @pytest.mark.parametrize("model", SUBMERSION_MODELS)
    def test_verify_forks_nothing(self, tmp_path, monkeypatch, capsys, model):
        _cpus(monkeypatch, 8)
        forks = _count_forks(monkeypatch)
        _theorems(tmp_path, "verify", model, 23, 42, command="verify")
        capsys.readouterr()
        assert forks == []

    def test_scan_of_ids_without_a_probe_forks_nothing(self, tmp_path, monkeypatch, capsys):
        _cpus(monkeypatch, 8)
        forks = _count_forks(monkeypatch)
        out = tmp_path / "r.json"
        argv = ["theorems", "--theorems", "V2,H1", "--points", "23", "--probe", "random:64",
                "--no-timestamp", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert forks == []

    def test_killed_worker_points_are_recomputed(self, tmp_path, monkeypatch, capsys):
        _cpus(monkeypatch, 1)
        code, want = _theorems(tmp_path, "one", "vertical-xi", 8, 42)
        parent = os.getpid()
        starts = []
        block_parts = cli._submersion_block

        def dies_in_a_worker(sub, config, plan, start, block):
            if os.getpid() != parent:
                os.kill(os.getpid(), SIGKILL)
            starts.append((start, len(block)))
            return block_parts(sub, config, plan, start, block)

        monkeypatch.setattr(cli, "_submersion_block", dies_in_a_worker)
        _cpus(monkeypatch, 2)
        forks = _count_forks(monkeypatch)
        got_code, got = _theorems(tmp_path, "forked", "vertical-xi", 8, 42)
        capsys.readouterr()
        assert got_code == code == 0
        assert len(forks) == 1
        assert got.read_bytes() == want.read_bytes()
        # this process ran its block of points 0-3, and then the worker's
        # block of points 4-7
        assert starts == [(0, 4), (4, 4)]

    def test_degenerate_frame_in_worker_points(self, tmp_path, monkeypatch, capsys):
        frames = theorems._random_probe_frames
        seen = []

        def recorded(calc, frame, coeffs):
            seen.append(coeffs[-1, -1].copy())
            return frames(calc, frame, coeffs)

        monkeypatch.setattr(theorems, "_random_probe_frames", recorded)
        _cpus(monkeypatch, 1)
        _theorems(tmp_path, "record", "vertical-xi", 8, 42)
        capsys.readouterr()
        # the last probe of the scan's last probe frame at its last point:
        # in the worker's points
        poisoned = seen[-1]

        def fails(calc, frame, coeffs):
            if coeffs.shape[-1] == poisoned.size and (coeffs == poisoned).all(axis=-1).any():
                raise DegenerateFrameError("probe completion lost rank")
            return frames(calc, frame, coeffs)

        monkeypatch.setattr(theorems, "_random_probe_frames", fails)
        results = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            forks = _count_forks(monkeypatch)
            code, out = _theorems(tmp_path, f"cpus{cpus}", "vertical-xi", 8, 42)
            results.append((code, capsys.readouterr().err, len(forks), out.exists()))
        assert results == [
            (7, "error: DegenerateFrameError: probe completion lost rank\n", 0, False),
            (7, "error: DegenerateFrameError: probe completion lost rank\n", 1, False),
        ]


class TestErrorOrder:
    """Where two blocks fail at different stages, the run reports the first
    failing block in sample order, whatever its stage; and a scan is
    planned, its ids checked, before any point is evaluated. One process
    and two agree."""

    def _run(self, tmp_path, monkeypatch, capsys, argv):
        results = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}.json"
            code = main([*argv, "--points", "23", "--probe", "random:64", "--no-timestamp",
                         "--out", str(out)])
            results.append((code, capsys.readouterr().err, out.exists()))
        assert results[0] == results[1]
        return results[0]

    def test_a_scan_error_in_an_early_block_beats_a_later_analysis_error(
        self, tmp_path, monkeypatch, capsys
    ):
        sub = cli.resolve_model("vertical-xi")
        pts = cli.sample_submersion_points(sub, SampleConfig(points=23, seed=42))
        frames = theorems._random_probe_frames

        def fails_at_point_0(calc, frame, coeffs):
            if (calc.point == pts[0]).all(axis=1).any():
                raise DegenerateFrameError("probe completion lost rank")
            return frames(calc, frame, coeffs)

        def refuses_point_22(spec, block):
            if (block == pts[22]).all(axis=1).any():
                raise DegenerateMetricError("refused the last point")
            return space_form_data(spec, block)

        monkeypatch.setattr(theorems, "_random_probe_frames", fails_at_point_0)
        monkeypatch.setattr(cli, "space_form_data", refuses_point_22)
        assert self._run(tmp_path, monkeypatch, capsys, ["report"]) == (
            7, "error: DegenerateFrameError: probe completion lost rank\n", False
        )

    def test_an_id_of_the_other_reeb_case_beats_any_evaluation_error(
        self, tmp_path, monkeypatch, capsys
    ):
        def refuses(spec, block):
            raise DegenerateMetricError("refused every point")

        monkeypatch.setattr(cli, "space_form_data", refuses)
        argv = ["theorems", "--theorems", "V1,V3"]
        assert self._run(tmp_path, monkeypatch, capsys, argv) == (
            2, "error: V3 needs a model with the Reeb field horizontal, got vertical\n", False
        )
