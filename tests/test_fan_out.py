"""Parts of a run on forked worker processes (``oneill_lab.fanout``).

A plain space form sampled into enough blocks is evaluated on one process
per usable CPU (``cli._map_blocks``), and so are the random probe columns
of a theorem scan with enough probe rows (``theorems.scan_theorems``).
Blocks and probe columns are independent, so the reports are
byte-identical to those of one process; an error is the one the first
failing part in order raises there; and no worker outlives a run.
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
from oneill_lab.invariants import analyze_point
from oneill_lab.riemannian import point_blocks
from oneill_lab.sampling import SampleConfig, sample_model_points, sample_submersion_points

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


def _blocks(count):
    """``count`` blocks of 10 points in R^7, 24,010 curvature entries each,
    each point's first coordinate its index: 15 of them are just less work
    than two workers' least (375,000 entries), and 16 just more."""
    assert 15 * 10 * 7**4 < 2 * cli._MIN_ENTRIES_PER_WORKER <= 16 * 10 * 7**4
    pts = np.zeros((10 * count, 7))
    pts[:, 0] = np.arange(10 * count)
    return [pts[i : i + 10] for i in range(0, len(pts), 10)]


def _first(block):
    return int(block[0, 0]), os.getpid()


class TestMapBlocks:
    @pytest.mark.parametrize("cpus, blocks, workers", [(2, 16, 2), (3, 25, 3), (4, 23, 2)])
    def test_contiguous_parts_in_order(self, monkeypatch, cpus, blocks, workers):
        _cpus(monkeypatch, cpus)
        got = cli._map_blocks(_first, _blocks(blocks))
        assert [i for i, _ in got] == list(range(0, 10 * blocks, 10))
        pids = [pid for _, pid in got]
        assert pids[0] == os.getpid()
        # each process took one contiguous run of blocks
        runs = [pids[0]] + [b for a, b in zip(pids, pids[1:]) if a != b]
        assert len(runs) == len(set(runs)) == workers

    @pytest.mark.parametrize("cpus, blocks", [(1, 100), (2, 15), (8, 15)])
    def test_too_few_blocks_or_cpus_stay_in_process(self, monkeypatch, cpus, blocks):
        _cpus(monkeypatch, cpus)
        forks = _count_forks(monkeypatch)
        got = cli._map_blocks(_first, _blocks(blocks))
        assert got == [(i, os.getpid()) for i in range(0, 10 * blocks, 10)]
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
    """r2m1:3 on 400 points: 15 blocks of 27 points (the last of 22), cut at
    block 7, so points 0-188 are this process's and 189-399 a worker's."""

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
        [[300], [390, 300], [50], [300, 50], [188, 189]],
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

    def test_cut_is_where_the_docstring_says(self):
        blocks = list(point_blocks(_sample(3), 7))
        assert len(blocks) == 15
        assert sum(len(b) for b in blocks[:7]) == 189

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
        # this process evaluated its own 7 blocks and then the worker's 8
        assert len(here) == 15 and sum(here) == 400

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

        def fn(b):
            if b[0, 0] == 0:
                raise DegenerateMetricError("block 0")
            if os.getpid() != parent:
                time.sleep(60)  # a worker still busy when this process fails
            return b

        start = time.monotonic()
        with pytest.raises(DegenerateMetricError, match="block 0"):
            cli._map_blocks(fn, _blocks(16))
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        # the fixture checks that the worker was reaped
        with pytest.raises(ProcessLookupError):
            os.kill(forks[0], 0)


def test_points_per_block_bound_the_forked_sweep(monkeypatch):
    # the sweep's d = 3 and 5 samples stay in one process, d = 7 and 9 fork
    _cpus(monkeypatch, 2)
    forks = _count_forks(monkeypatch)
    sizes, forked = {}, {}
    for m in (1, 2, 3, 4):
        blocks = list(point_blocks(_sample(m), 2 * m + 1))
        sizes[m] = (len(blocks), len(blocks[0]), len(blocks[-1]))
        before = len(forks)
        cli._map_blocks(len, blocks)
        forked[m] = len(forks) - before
    assert sizes == {1: (1, 400, 400), 2: (4, 104, 88), 3: (15, 27, 22), 4: (45, 9, 4)}
    assert forked == {1: 0, 2: 0, 3: 1, 4: 1}


SUBMERSION_MODELS = ("vertical-xi", "horizontal-xi", "models/reeb_fiber.json")
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _theorems(tmp_path, name, model, points, seed, probe="random:64", command="theorems"):
    out = tmp_path / f"{name}.json"
    argv = [command, "--model", os.path.join(REPO, model) if model.endswith(".json") else model,
            "--points", str(points), "--seed", str(seed), "--probe", probe,
            "--no-timestamp", "--out", str(out)]
    return main(argv), out


class TestForkedScans:
    """Random probe columns of a theorem scan on a forked worker: at 8
    points and 64 probes a scan has 512 probe rows, so on 2 CPUs each
    process takes 32 columns of every id that probes."""

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
    def test_joined_tables_equal_one_process_tables(self, monkeypatch, model):
        sub = cli.resolve_model(os.path.join(REPO, model) if model.endswith(".json") else model)
        pts = sample_submersion_points(sub, SampleConfig(points=23, seed=42))
        analyses = [
            analyze_point(sub, space_form_data(sub.total, block))
            for block in point_blocks(pts, sub.total.model.dim, power=5)
        ]
        scans = {}
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            scans[cpus] = theorems.scan_theorems(
                analyses, None, "random:64", np.random.default_rng(43)
            )
        assert scans[1].keys() == scans[2].keys()
        for tid, scan in scans[1].items():
            for want, got in zip(scan.tables, scans[2][tid].tables, strict=True):
                for name in theorems._PROBE_FIELDS:
                    a, b = getattr(want, name), getattr(got, name)
                    assert (a is None) == (b is None), (tid, name)
                    if a is not None:
                        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (tid, name)

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

    def test_scan_of_ids_without_a_probe_forks_nothing(self, tmp_path, monkeypatch, capsys):
        _cpus(monkeypatch, 8)
        forks = _count_forks(monkeypatch)
        out = tmp_path / "r.json"
        argv = ["theorems", "--theorems", "V2,H1", "--points", "23", "--probe", "random:64",
                "--no-timestamp", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert forks == []

    def test_killed_worker_columns_are_recomputed(self, tmp_path, monkeypatch, capsys):
        _cpus(monkeypatch, 1)
        code, want = _theorems(tmp_path, "one", "vertical-xi", 8, 42)
        parent = os.getpid()
        columns = []
        evaluate = theorems._evaluate_probes

        def dies_in_a_worker(analysis, tid, mode, k, coeffs):
            if os.getpid() != parent:
                os.kill(os.getpid(), SIGKILL)
            if coeffs:
                columns.append(k)
            return evaluate(analysis, tid, mode, k, coeffs)

        monkeypatch.setattr(theorems, "_evaluate_probes", dies_in_a_worker)
        _cpus(monkeypatch, 2)
        got_code, got = _theorems(tmp_path, "forked", "vertical-xi", 8, 42)
        capsys.readouterr()
        assert got_code == code == 0
        assert got.read_bytes() == want.read_bytes()
        # this process evaluated its 32 columns of the four probed ids, and
        # then the worker's 32
        assert columns == [32] * 8

    def test_degenerate_frame_in_worker_columns(self, tmp_path, monkeypatch, capsys):
        frames = theorems._random_probe_frames
        seen = []

        def recorded(calc, frame, coeffs):
            seen.append(coeffs[0, -1].copy())
            return frames(calc, frame, coeffs)

        monkeypatch.setattr(theorems, "_random_probe_frames", recorded)
        _cpus(monkeypatch, 1)
        _theorems(tmp_path, "record", "vertical-xi", 8, 42)
        capsys.readouterr()
        # the last probe of the scan's last probe frame: in the worker's columns
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
