"""Command-line front end: model selection, sampling, runs, exit codes.

Commands: ``verify`` (structure and identity sections), ``theorems``
(inequality scans), ``report`` (all sections).  Exit codes: 0 pass, 1 fail,
2 usage error, 3 pass-with-flags, 4 model load failure, 5 empty admissible
sample, 6 report write failure, 7 any other package error, or a failed
memory allocation, during the run.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .contact import (
    SasakianSpaceFormSpec,
    SpaceFormData,
    build_r2m1,
    space_form_block,
    space_form_chunk,
    space_form_data,
    verify_sasakian,
)
from .errors import (
    EmptySampleError,
    ModelLoadError,
    OneillLabError,
    RejectedInputError,
)
from .fanout import map_parts, split
from .invariants import analyze_point, identity_residuals
from .report import Report, Tolerances, known_flags_for
from .riemannian import max_residual, point_blocks
from .sampling import SampleConfig, sample_model_points, sample_submersion_points
from .submersion import (
    load_custom_model,
    verify_riemannian_submersion,
    verify_structure_lemmas,
)
from .theorems import (
    parse_probe_mode, parse_theorem_ids, plan_scan, scan_block, scan_from_records,
)

# Bundled models: model files of the documented schema shipped with the
# package as models/<name>.json.
BUNDLED_DIR = Path(__file__).resolve().parent / "models"
BUNDLED_MODELS = ("vertical-xi", "horizontal-xi")


class RunConfig(NamedTuple):
    command: str
    model: str = "vertical-xi"
    points: int = 100
    seed: int = 42
    box: tuple = (-2.0, 2.0)
    tolerances: Tolerances = Tolerances()
    theorems: Optional[tuple] = None  # None means all applicable ids
    probe: str = "first"
    out: Optional[str] = None
    no_timestamp: bool = False


def load_model(name: str):
    """The model a name stands for, and the bytes of its model file (None
    for ``r2m1:<m>``). A name is ``r2m1:<m>``, a bundled model, or else a
    path if it ends in ``.json`` or exists. The file is read once: the known
    flags are keyed on the bytes the model was built from. ``m`` is written
    without leading zeros, so that the name a report echoes is one per
    model."""
    m = re.fullmatch(r"r2m1:(0|[1-9][0-9]*)", name)
    if m:
        try:
            return build_r2m1(int(m.group(1))), None
        except OneillLabError as exc:
            raise ModelLoadError(str(exc)) from exc
    if name in BUNDLED_MODELS:
        path = BUNDLED_DIR / f"{name}.json"
    elif name.endswith(".json") or os.path.exists(name):
        path = Path(name)
    else:
        raise ModelLoadError(f"unknown model: {name}")
    try:
        contents = path.read_bytes()
        return load_custom_model(contents), contents
    except (OneillLabError, OSError, ValueError) as exc:
        raise ModelLoadError(f"cannot load model file {name}: {exc}") from exc


def resolve_model(name: str):
    """Bundled model name, builtin family, or path to a model file."""
    return load_model(name)[0]


def _config_echo(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "model": config.model,
        "points": config.points,
        "seed": config.seed,
        "box": [float(config.box[0]), float(config.box[1])],
        "tolerances": config.tolerances._asdict(),
        "theorems": list(config.theorems) if config.theorems is not None else "all",
        "probe": config.probe,
    }


# The least work each worker process of ``_map_blocks`` gets on a plain
# space form, in curvature entries: points times d^4, which counts points of
# any d alike. Forking costs about 3 ms, and afterwards both processes take
# about a thousand copy-on-write faults on the heap pages they share. In
# rounds of 10 alternated pairs of ``verify`` (in one process on a 2-core
# x86-64 VM, each side the mean of 3 runs) at d = 5, 7 and 9, a worker won
# 0 to 10 pairs at 125,000-175,000 entries per worker, and 9 or 10 at every
# d at ~187,500 (600, 156 and 57 points). With chunks and blocks, one round
# at ~187,500 (host_parallelism 1.08 before, 1.03 after) gave the worker 10,
# 9 and 10 wins, medians 0.062 -> 0.044 s at d = 5, 0.055 -> 0.039 s at
# d = 7, 0.049 -> 0.038 s at d = 9. So at 400 points d = 3 and 5 stay in one
# process, and 7 and 9 fork.
_MIN_ENTRIES_PER_WORKER = 187_500

# The least work each worker process of ``_map_blocks`` gets on a
# submersion, in random probe rows: points times k under ``random:<k>`` when
# an id probes, else 0. CPU times (getrusage) of a scan of vertical-xi at 8
# points, one worker against none, medians of 20 alternated runs on a 2-core
# x86-64 VM whose second core is shared: at 64 rows per worker the process
# saved 6.8 ms against 8.1 ms of fork costs on both sides together (fork,
# copy-on-write faults, pickling), at 128 rows 19.4 ms against 9.0 ms. On the
# benchmark's theorems-random-probes (two scans of 512 rows a pass, a worker
# taking 256 of each), a pass took 0.084-0.103 s (median 0.090) with a worker
# and 0.107-0.112 s (median 0.109) without, in 10 alternated pairs of 40 s
# runs; the worker won all 10.
_MIN_PROBE_ROWS_PER_WORKER = 128


def _map_blocks(fn, pts, power: int, per_point: int, min_per_worker: int) -> list:
    """``fn(start, block)`` of each block of the sample ``pts``, in sample
    order, ``start`` being the index of the block's first point. The points
    are cut into contiguous ranges, one per usable CPU, each with at least
    ``min_per_worker`` units of work at ``per_point`` units a point, and
    each range into ``point_blocks(range, d, power)``; every range after the
    first runs on a forked worker (``fanout.map_parts``)."""

    def blocks_of(span):
        start, stop = span
        parts = []
        for block in point_blocks(pts[start:stop], pts.shape[1], power):
            parts.append(fn(start, block))
            start += len(block)
        return parts

    ranges = split(len(pts), len(pts) * per_point, min_per_worker)
    return [part for parts in map_parts(blocks_of, ranges) for part in parts]


def _maxima(dicts) -> dict:
    """The ``max_residual`` of each key over the residual dicts ``dicts``,
    folded in sample order."""
    maxima = {}
    for residuals in dicts:
        for key, val in residuals.items():
            maxima[key] = max_residual(val, maxima.get(key, 0.0))
    return maxima


def _curv1(data: SpaceFormData) -> dict:
    """The largest entry of the curvature cross-check ``curv1`` on one
    block: the jet curvature against the closed form."""
    # in place, so the difference is the one d^4-sized array it makes
    curv1 = data.curvature.r4 - data.closed
    return {"curv1": max_residual(np.abs(curv1, out=curv1))}


def _space_form_summary(data: SpaceFormData) -> dict:
    """The largest of each Sasakian residual and of ``curv1`` on one block."""
    return _maxima([verify_sasakian(data), _curv1(data)])


def _space_form_chunk_summary(spec: SasakianSpaceFormSpec, points) -> dict:
    """The largest of each Sasakian residual and of ``curv1`` on a chunk of
    points of a plain space form: the chunk stage once, then the block
    stage on each of its blocks, each folded before the next is made."""
    chunk = space_form_chunk(spec, points)
    blocks = point_blocks(range(len(points)), points.shape[1], 4)
    curvature = (_curv1(space_form_block(spec, chunk, slice(b.start, b.stop))) for b in blocks)
    return _maxima(itertools.chain([verify_sasakian(chunk)], curvature))


def _spaceform_structure(summaries, points: int) -> dict:
    """Sasakian residuals and the curvature cross-check over the sample of
    ``points`` points, folded from the summaries of its blocks."""
    sas = _maxima(summaries)
    curvature = {"curv1": sas.pop("curv1")}
    return {"points": points, "sasakian": sas, "curvature": curvature}


def _submersion_structure(parts, points: int) -> dict:
    """Structure section over the sample, folded from the parts of its
    blocks (``_submersion_block``): the space-form part, then the submersion
    residuals and lemmas."""
    section = _spaceform_structure((p["sasakian"] for p in parts), points)
    lengths = np.concatenate([p["submersion"].length_residual for p in parts]).tolist()
    pd_flags = np.concatenate([p["submersion"].base_pd for p in parts]).tolist()
    section["submersion"] = {
        "kernel": max_residual(np.concatenate([p["submersion"].kernel_residual for p in parts])),
        "length": max_residual(lengths),
        "length_residuals": lengths,
        "base_pd_all": all(pd_flags),
        "base_pd_flags": pd_flags,
    }
    section["lemmas"] = _maxima(p["lemmas"] for p in parts)
    return section


def _check_xi_case(calc, tol: float) -> None:
    """ModelLoadError at the block's first point where the Reeb field's part
    outside its declared block has a g-length above ``tol`` (or NaN)."""
    sub = calc.sub
    other = calc.h_project_values if sub.xi_case == "vertical" else calc.v_project_values
    off = other(calc.state.contact.xi)
    length = np.sqrt(calc.pairings(off, off))
    k = np.argmax(~(length <= tol))
    if not length[k] <= tol:
        raise ModelLoadError(
            f"xi_case of {sub.name!r} is {sub.xi_case}, but the Reeb field has a part "
            f"of length {length[k]:.3e} outside that block at {calc.point[k].tolist()}"
        )


def _submersion_block(sub, config: RunConfig, plan, start: int, block) -> dict:
    """The parts of a submersion run on one block of points, whose first is
    point ``start`` of the sample: the block's analysis and Reeb-case check,
    then the structure parts and identity residuals unless the command is
    ``theorems``, and with a scan ``plan`` the theorem tables."""
    analysis = analyze_point(sub, space_form_data(sub.total, block))
    calc = analysis.calc
    # not below 1e-12: that part rounds to up to 1.1e-13 on the bundled
    # models at a box of +-1000, where it is 0 exactly
    _check_xi_case(calc, max(config.tolerances.d1, 1e-12))
    parts = {}
    if config.command != "theorems":
        parts["sasakian"] = _space_form_summary(calc.state)
        parts["submersion"] = verify_riemannian_submersion(calc)
        parts["lemmas"] = verify_structure_lemmas(calc, analysis.data)
        parts["identities"] = identity_residuals(analysis)
    if plan is not None:
        parts["theorems"] = scan_block(analysis, plan, start)
    return parts


def run(config: RunConfig) -> Report:
    """Execute the configured run and assemble the report.

    Raises ModelLoadError, EmptySampleError, RejectedInputError, or another
    OneillLabError raised at a sample point; the CLI wrapper maps these to
    exit codes. A scan is planned, its ids checked, before any point is
    evaluated; then the error is the first failing block's, at any stage."""
    model_obj, contents = load_model(config.model)
    scfg = SampleConfig(points=config.points, seed=config.seed, box=config.box)

    fields = {}  # of the report, beside its config
    if isinstance(model_obj, SasakianSpaceFormSpec):
        if config.command == "theorems":
            raise RejectedInputError(
                "theorem scans need a submersion model, "
                f"got the plain total space {config.model}"
            )
        pts = sample_model_points(model_obj.model, scfg)
        summaries = _map_blocks(
            lambda _, chunk: _space_form_chunk_summary(model_obj, chunk),
            pts, 3, pts.shape[1] ** 4, _MIN_ENTRIES_PER_WORKER,
        )
        fields["structure"] = _spaceform_structure(summaries, len(pts))
    else:
        sub = model_obj
        fields["known_flags"] = known_flags_for(contents)
        pts = sample_submersion_points(sub, scfg)
        plan = None if config.command == "verify" else plan_scan(
            sub, len(pts), config.theorems, config.probe, np.random.default_rng(config.seed + 1)
        )
        # each block's whole pipeline, its analysis shared by every section
        parts = _map_blocks(
            lambda start, block: _submersion_block(sub, config, plan, start, block),
            pts, 5, plan.rows if plan else 0, _MIN_PROBE_ROWS_PER_WORKER,
        )
        if config.command != "theorems":
            fields["structure"] = _submersion_structure(parts, len(pts))
            fields["identities"] = {"max_residuals": _maxima(p["identities"] for p in parts)}
        if plan is not None:
            fields["theorems"] = {
                tid: scan_from_records([p["theorems"][tid] for p in parts])
                for tid in plan.theorem_ids
            }
    return Report(_config_echo(config), **fields)


def cli_parse(argv) -> RunConfig:
    """The run that the command line ``argv`` asks for, from one parser
    built anew at each call. The parser keeps only the flags given, so a
    flag left out takes its default from ``RunConfig`` (a tolerance tier
    from ``Tolerances``), where each default is written once."""
    parser = argparse.ArgumentParser(
        prog="oneill-lab",
        usage="%(prog)s COMMAND [flags]",
        description="numerical verification runs for submersion curvature bounds",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "command",
        choices=("verify", "theorems", "report"),
        metavar="COMMAND",
        help="verify (structure and identity residuals), theorems (inequality scans), "
        "report (full run: structure, identities, theorems)",
    )
    parser.add_argument("--model")
    parser.add_argument("--points", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--box", help="sampling interval LO,HI per coordinate")
    for name in Tolerances._fields:  # --tol-alg --tol-d1 --tol-curv --tol-d2curv
        parser.add_argument(f"--tol-{name}", type=float)
    parser.add_argument("--theorems", help="comma-separated ids or 'all'")
    parser.add_argument("--probe", help="first | all | random:<k>")
    parser.add_argument("--out")
    parser.add_argument("--no-timestamp", action="store_true")
    given = vars(parser.parse_args(argv))
    tiers = {key[4:]: given.pop(key) for key in list(given) if key.startswith("tol_")}
    # --box and --theorems are still their text where given
    config = RunConfig(**given, tolerances=Tolerances(**tiers))

    if config.points < 1:
        parser.error(f"--points must be positive, got {config.points}")
    if config.seed < 0:
        parser.error(f"--seed must not be negative, got {config.seed}")
    if "box" in given:
        try:
            lo, hi = (float(tok) for tok in config.box.split(","))
        except ValueError:
            parser.error(f"--box expects LO,HI, got {config.box!r}")
        if not hi > lo:
            parser.error(f"--box needs LO < HI, got {config.box!r}")
        if not np.isfinite(hi - lo):
            parser.error(f"--box needs a finite width HI - LO, got {config.box!r}")
        config = config._replace(box=(lo, hi))
    try:
        parse_probe_mode(config.probe)
    except RejectedInputError:
        parser.error(f"--probe expects first, all, or random:<k>, got {config.probe!r}")
    if config.theorems == "all":
        config = config._replace(theorems=None)
    elif config.theorems is not None:
        try:
            config = config._replace(theorems=parse_theorem_ids(config.theorems))
        except RejectedInputError as exc:
            parser.error(str(exc))
    for name, value in config.tolerances._asdict().items():
        if not value >= 0.0:  # NaN fails this too
            parser.error(f"--tol-{name} must be a number >= 0, got {value}")
        if value == np.inf:  # a gate that no residual can fail
            parser.error(f"--tol-{name} must be finite, got {value}")
    return config


_VERDICT_EXIT = {"pass": 0, "fail": 1, "pass-with-flags": 3}

# Each error of a run that ``main`` prints as one line, and the exit code it
# returns, by the first row whose class the error is of: (error class, exit
# code, whether the line names the class of the error raised). 7, a code no
# verdict uses, is any other package error (a degenerate metric or frame at a
# sample point) and an array too large to allocate (a huge random:<k> probe).
_RUN_ERRORS = (
    (ModelLoadError, 4, False),
    (EmptySampleError, 5, False),
    (RejectedInputError, 2, False),
    (OneillLabError, 7, True),
    (MemoryError, 7, True),
)

# glibc mallopt parameters and the values set by _retain_freed_heap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


def _retain_freed_heap() -> None:
    """Keep the memory of freed arrays in the process heap (glibc only).

    Each chunk or block of points allocates and frees a few MiB of arrays
    (up to 256 KiB each, see ``riemannian.point_blocks``; a plain space
    form's chunk, with its blocks, peaks at about 3.8 MiB of them at
    d = 3..9). With glibc's defaults the heap is trimmed after every chunk,
    so the next one takes all its pages from the kernel again as fresh
    page faults (about 840 per chunk at d = 9). Arrays below 4 MiB come
    from the heap, and up to 16 MiB of free heap stays in the process, so
    chunks reuse their pages. Setting the same values again is harmless;
    other C libraries are left alone."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
    except (ValueError, OSError):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _retain_freed_heap()
    try:
        config = cli_parse(argv)
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2
    try:
        # a value that overflows or turns NaN fails its check or raises;
        # numpy's warnings about it would only precede the one-line error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            report = run(config)
    except tuple(cls for cls, _, _ in _RUN_ERRORS) as exc:
        code, named = next((c, n) for cls, c, n in _RUN_ERRORS if isinstance(exc, cls))
        name = f"{type(exc).__name__}: " if named else ""
        print(f"error: {name}{exc}", file=sys.stderr)
        return code
    timestamp = (
        None
        if config.no_timestamp
        else datetime.datetime.now(datetime.timezone.utc).isoformat()
    )
    text = report.render(timestamp)
    if config.out is not None:
        try:
            with open(config.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 6
    else:
        sys.stdout.write(text)
    verdict = report.verdict
    print(f"verdict: {verdict}", file=sys.stderr)
    return _VERDICT_EXIT[verdict]
