"""Command-line front end: model selection, sampling, runs, exit codes.

Subcommands: ``verify`` (structure and identity sections), ``theorems``
(inequality scans), ``report`` (all sections).  Exit codes: 0 pass, 1 fail,
2 usage error, 3 pass-with-flags, 4 model load failure, 5 empty admissible
sample, 6 report write failure, 7 any other package error during the run.
"""

from __future__ import annotations

import argparse
import datetime
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .contact import SasakianSpaceFormSpec, build_r2m1, space_form_data, verify_sasakian
from .errors import (
    EmptySampleError,
    ModelLoadError,
    OneillLabError,
    RejectedInputError,
)
from .invariants import analyze_point
from .report import Report, Tolerances, decide_verdict, identity_tolerance, known_flags_for
from .riemannian import max_residual, point_blocks
from .sampling import SampleConfig, sample_model_points, sample_submersion_points
from .submersion import (
    SubmersionModel,
    load_custom_model,
    verify_riemannian_submersion,
    verify_structure_lemmas,
)
from .theorems import THEOREM_IDS, parse_probe_mode, scan_theorems

# Bundled models: model files of the documented schema shipped with the
# package as models/<name>.json.
BUNDLED_DIR = Path(__file__).resolve().parent / "models"
BUNDLED_MODELS = ("vertical-xi", "horizontal-xi")


@dataclass(frozen=True)
class RunConfig:
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


def _model_file(name: str) -> Optional[Path]:
    """The file a model name that is not ``r2m1:<m>`` stands for: a bundled
    model's file, else the name as a path if it ends in ``.json`` or exists."""
    if name in BUNDLED_MODELS:
        return BUNDLED_DIR / f"{name}.json"
    if name.endswith(".json") or os.path.exists(name):
        return Path(name)
    return None


def resolve_model(name: str):
    """Bundled model name, builtin family, or path to a model file."""
    m = re.fullmatch(r"r2m1:([0-9]+)", name)
    if m:
        try:
            return build_r2m1(int(m.group(1)))
        except OneillLabError as exc:
            raise ModelLoadError(str(exc)) from exc
    path = _model_file(name)
    if path is None:
        raise ModelLoadError(f"unknown model: {name}")
    try:
        return load_custom_model(path)
    except (OneillLabError, OSError, ValueError) as exc:
        raise ModelLoadError(f"cannot load model file {name}: {exc}") from exc


def _config_echo(config: RunConfig) -> dict:
    tol = config.tolerances
    return {
        "command": config.command,
        "model": config.model,
        "points": config.points,
        "seed": config.seed,
        "box": [float(config.box[0]), float(config.box[1])],
        "tolerances": {
            "alg": tol.alg,
            "d1": tol.d1,
            "curv": tol.curv,
            "d2curv": tol.d2curv,
        },
        "theorems": list(config.theorems) if config.theorems is not None else "all",
        "probe": config.probe,
    }


def _space_form_blocks(spec: SasakianSpaceFormSpec, pts):
    """The total space's data on consecutive blocks of the sample."""
    for block in point_blocks(pts, spec.model.dim):
        yield space_form_data(spec, block)


def _spaceform_structure(spec: SasakianSpaceFormSpec, blocks, tol: Tolerances):
    """Sasakian residuals and the curvature cross-check over the sample,
    from its blocks of total-space data."""
    sas = {}
    curv1 = 0.0
    points = 0
    for data in blocks:
        residuals = verify_sasakian(spec, data.points, data.conn, data.contact)
        for key, val in residuals.items():
            sas[key] = max_residual(val, sas.get(key, 0.0))
        curv1 = max_residual(np.abs(data.curvature.r4 - data.closed), curv1)
        points += len(data.points)
        del data  # free this block before the next one is evaluated
    section = {
        "points": points,
        "sasakian": sas,
        "curvature": {"curv1": curv1},
    }
    checks = {f"sasakian.{k}": v <= tol.d1 for k, v in sas.items()}
    checks["curvature.curv1"] = curv1 <= tol.curv
    return section, checks


def _submersion_structure(sub: SubmersionModel, blocks, analyses, tol: Tolerances):
    """Structure section over the analyzed sample points: the space-form
    part on the blocks of total-space data, then the submersion checks and
    lemmas on each point's frame and tensor data."""
    section, checks = _spaceform_structure(sub.total, blocks, tol)
    lemmas = {}
    kernel = 0.0
    lengths = []
    pd_flags = []
    for analysis in analyses:
        calc = analysis.calc
        chk = verify_riemannian_submersion(calc)
        kernel = max_residual([chk.kernel_residual], kernel)
        lengths.append(float(chk.length_residual))
        pd_flags.append(bool(chk.base_pd))
        for key, val in verify_structure_lemmas(calc, analysis.data).items():
            lemmas[key] = max_residual([val], lemmas.get(key, 0.0))
    length = max_residual(lengths)
    section["submersion"] = {
        "kernel": kernel,
        "length": length,
        "length_residuals": lengths,
        "base_pd_all": all(pd_flags),
        "base_pd_flags": pd_flags,
    }
    section["lemmas"] = lemmas
    checks["submersion.kernel"] = kernel <= tol.d1
    checks["submersion.length"] = length <= tol.d1
    checks["submersion.base_pd"] = all(pd_flags)
    for k, v in lemmas.items():
        checks[f"lemmas.{k}"] = v <= tol.d1
    return section, checks


def _identity_section(analyses, tol: Tolerances):
    maxima = {}
    for analysis in analyses:
        for key, val in analysis.identity_residuals.items():
            maxima[key] = max_residual([val], maxima.get(key, 0.0))
    checks = {
        f"identities.{key}": val <= identity_tolerance(key, tol)
        for key, val in maxima.items()
    }
    return {"max_residuals": maxima}, checks


def _theorem_section(analyses, config: RunConfig):
    rng = np.random.default_rng(config.seed + 1)
    scans = scan_theorems(analyses, config.theorems, config.probe, rng)
    section = {}
    checks = {}
    for tid, scan in scans.items():
        entry = {
            "points_checked": scan.points_checked,
            "records": scan.records,
            "violations": scan.violations,
            "equalities": scan.equalities,
            "min_slack": scan.min_slack,
            "argmin_point": [float(x) for x in scan.argmin_point],
        }
        if scan.variant_tallies is not None:
            entry["variants"] = {
                name: dict(t) for name, t in scan.variant_tallies.items()
            }
            surviving = [
                name
                for name, t in scan.variant_tallies.items()
                if t["violations"] == 0
            ]
            entry["surviving_variants"] = surviving
            checks[f"theorems.{tid}"] = len(surviving) > 0
        else:
            checks[f"theorems.{tid}"] = scan.violations == 0
        section[tid] = entry
    return section, checks


def run(config: RunConfig) -> Report:
    """Execute the configured run and assemble the report.

    Raises ModelLoadError, EmptySampleError, RejectedInputError, or another
    OneillLabError raised at a sample point; the CLI wrapper maps these to
    exit codes."""
    model_obj = resolve_model(config.model)
    tol = config.tolerances
    scfg = SampleConfig(points=config.points, seed=config.seed, box=config.box)

    structure = identities = theorems = None
    checks = {}
    flagged = frozenset()
    if isinstance(model_obj, SasakianSpaceFormSpec):
        if config.command == "theorems":
            raise RejectedInputError(
                "theorem scans need a submersion model, "
                f"got the plain total space {config.model}"
            )
        pts = sample_model_points(model_obj.model, scfg)
        structure, checks = _spaceform_structure(
            model_obj, _space_form_blocks(model_obj, pts), tol
        )
    else:
        sub = model_obj
        flagged = known_flags_for(_model_file(config.model).read_bytes())
        pts = sample_submersion_points(sub, scfg)
        # the total space's data once per block of points, and one analysis
        # per point on its slice of them, shared by every section
        blocks = []
        analyses = []
        for data in _space_form_blocks(sub.total, pts):
            blocks.append(data)
            analyses.extend(
                analyze_point(sub, pt, data[k]) for k, pt in enumerate(data.points)
            )
        if config.command in ("verify", "report"):
            structure, structure_checks = _submersion_structure(
                sub, blocks, analyses, tol
            )
            checks.update(structure_checks)
            identities, id_checks = _identity_section(analyses, tol)
            checks.update(id_checks)
        if config.command in ("theorems", "report"):
            theorems, th_checks = _theorem_section(analyses, config)
            checks.update(th_checks)

    verdict, flags_raised = decide_verdict(checks, flagged)
    return Report(
        config=_config_echo(config),
        structure=structure,
        identities=identities,
        theorems=theorems,
        checks=checks,
        verdict=verdict,
        flags_raised=flags_raised,
    )


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", default="vertical-xi")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--box", default="-2,2", help="sampling interval LO,HI per coordinate")
    p.add_argument("--tol-alg", type=float, default=Tolerances().alg)
    p.add_argument("--tol-d1", type=float, default=Tolerances().d1)
    p.add_argument("--tol-curv", type=float, default=Tolerances().curv)
    p.add_argument("--tol-d2curv", type=float, default=Tolerances().d2curv)
    p.add_argument("--theorems", default="all", help="comma-separated ids or 'all'")
    p.add_argument("--probe", default="first", help="first | all | random:<k>")
    p.add_argument("--out", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def cli_parse(argv) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="oneill-lab",
        description="numerical verification runs for submersion curvature bounds",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("verify", "structure and identity residuals"),
        ("theorems", "inequality scans"),
        ("report", "full run: structure, identities, theorems"),
    ):
        _add_common_flags(subparsers.add_parser(name, help=blurb))
    ns = parser.parse_args(argv)

    if ns.points < 1:
        parser.error(f"--points must be positive, got {ns.points}")
    try:
        lo, hi = (float(tok) for tok in ns.box.split(","))
    except ValueError:
        parser.error(f"--box expects LO,HI, got {ns.box!r}")
    if not hi > lo:
        parser.error(f"--box needs LO < HI, got {ns.box!r}")
    try:
        parse_probe_mode(ns.probe)
    except RejectedInputError:
        parser.error(f"--probe expects first, all, or random:<k>, got {ns.probe!r}")
    theorems = None
    if ns.theorems != "all":
        ids = tuple(tok.strip() for tok in ns.theorems.split(",") if tok.strip())
        for tid in ids:
            if tid not in THEOREM_IDS:
                parser.error(f"unknown theorem id: {tid}")
        theorems = ids
    return RunConfig(
        command=ns.command,
        model=ns.model,
        points=ns.points,
        seed=ns.seed,
        box=(lo, hi),
        tolerances=Tolerances(
            alg=ns.tol_alg, d1=ns.tol_d1, curv=ns.tol_curv, d2curv=ns.tol_d2curv
        ),
        theorems=theorems,
        probe=ns.probe,
        out=ns.out,
        no_timestamp=ns.no_timestamp,
    )


_VERDICT_EXIT = {"pass": 0, "fail": 1, "pass-with-flags": 3}

# glibc mallopt parameters and the values set by _retain_freed_heap.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 4 << 20
_TRIM_THRESHOLD_BYTES = 16 << 20


def _retain_freed_heap() -> None:
    """Keep the memory of freed arrays in the process heap (glibc only).

    Each block of points allocates and frees a few MiB of arrays (up to
    256 KiB each, see ``riemannian.point_blocks``). With glibc's defaults
    the heap is trimmed after every block, so the next block takes all its
    pages from the kernel again as fresh page faults (about 500 per block
    at d = 9). Arrays below 4 MiB come from the heap, and up to 16 MiB of
    free heap stays in the process, so blocks reuse their pages. Setting
    the same values again is harmless; other C libraries are left alone."""
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
        report = run(config)
    except ModelLoadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EmptySampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except RejectedInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OneillLabError as exc:
        # any other package error, such as a degenerate metric or frame at
        # a sample point: one line, and a code no verdict uses
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 7
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
    print(f"verdict: {report.verdict}", file=sys.stderr)
    return _VERDICT_EXIT[report.verdict]
