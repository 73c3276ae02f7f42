"""Write the byte-identity matrix of reports into OUT_DIR.

Every report of the matrix is written with --no-timestamp, so that the
output directories of two checkouts, compared with ``diff -r``, show
whether the checkouts give byte-identical reports. The matrix:

- ``verify`` on r2m1:1..4 at 40 points (blocks of 9 points at d = 9, the
  last of 4);
- ``verify`` on r2m1:1..4 at 400 points: one block of 400 points at d = 3,
  three of 104 points and one of 88 at d = 5 in one process, and at d = 7
  and 9 two ranges of 200 points, each cut into blocks of 27 (the last of
  11) and of 9 (the last of 2);
- ``verify`` on r2m1:3 at 401 points (ranges of 200 and 201 points, the
  second's last block of 12) and on r2m1:4 at 1 and at 57 points (one
  point, and six blocks of 9 and one of 3 in one process: 57 * 9**4 is
  just less than two workers' least work);
- ``verify`` on r2m1:5 and r2m1:6 at 20 points (d = 11 and 13: five
  blocks of 4 points in one process, and two ranges of 10 points in five
  blocks of 2 each);
- ``report`` and ``theorems`` on vertical-xi, horizontal-xi and
  models/reeb_fiber.json at 56 points (d = 5: a sample in one process is
  cut by ``point_blocks(power=5)`` into five blocks of 10 points and one
  of 6; under random:8, 448 probe rows, it is two ranges of 28 points,
  each in blocks of 10, 10 and 8);

each at seeds 42, 7 and 1234 and with ``--probe`` first, all and random:8
(171 runs); ``theorems --probe random:64`` on the same three models at
8 points, at the same seeds (9 runs, 512 probe rows: two ranges of 4
points); and ``report --probe all`` on the same three models at 1 and at
11 points, seed 42 only (6 runs: a block of one point, and a block of 10
with a partial block of 1 after it, where a frame table read that
depended on its block's size would show); and ``report`` on horizontal-xi
at 20 points with ``--box=-1,1``, at the same seeds (3 runs, where about
one draw in six passes the guards, so the sample takes many rounds of
draws); ``report`` on vertical-xi at 11 points with ``--tol-curv`` and
``--tol-d2curv`` at 1e-16, at the same seeds (3 runs whose curvature and
identity checks fail on tiers below their residuals: at seed 42 the
cross-check and seven identities, exit 1 with verdict fail); and
``theorems --theorems CRH1 --probe all`` on vertical-xi at 11 points, at
the same seeds (3 runs, a scan whose one check is the CRH1 variant rule).
``cli._map_blocks`` is the one
fan-out: it cuts a sample's points into contiguous ranges, one per usable
CPU with enough work (curvature entries on a plain space form, random
probe rows on a submersion), and each range after the first runs on a
forked worker. The ranges above are those of a machine with two usable
CPUs; with one, every run stays in one process. 195 runs in all, each
report named by its command, model, points, seed and probe, and the
further flags it is given;
exit_codes.txt holds the exit code of each. The parser's own text is part
of the matrix too: the ``--help`` output at ``COLUMNS=80`` of the command
line ``--help`` alone and after each command (help-<name>.txt; the one
parser of ``cli.cli_parse`` prints the same text for all four), and the
standard error and exit code of six bad command lines (usage-<case>.txt):
a negative ``--points``, a ``--box`` that is not LO,HI, an unknown theorem
id, a repeated theorem id, a bad ``--probe`` and a negative ``--tol-d1``. Beside them,
run_all/ and run_all.txt hold what scripts/run_all.py writes and prints,
and crh1-<seed>.txt what scripts/crh1_disambiguation.py prints at each
seed. run_all.py stamps its reports and names the output directory and a
model file by absolute paths, so its ``generated_at`` lines are dropped,
the two paths read ``<out>`` and ``<checkout>``, and the padding of its
printed columns is one space.

Usage: python scripts/bits_matrix.py OUT_DIR
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from oneill_lab.cli import main  # noqa: E402

SEEDS = (42, 7, 1234)
PROBES = ("first", "all", "random:8")
SUBMERSIONS = ("vertical-xi", "horizontal-xi", "models/reeb_fiber.json")
# (command, model, points, probes, seeds, *further flags)
RUNS = [("verify", f"r2m1:{m}", 40, PROBES, SEEDS) for m in (1, 2, 3, 4)] + [
    ("verify", f"r2m1:{m}", 400, PROBES, SEEDS) for m in (1, 2, 3, 4)
] + [
    ("verify", "r2m1:3", 401, PROBES, SEEDS), ("verify", "r2m1:4", 1, PROBES, SEEDS),
    ("verify", "r2m1:4", 57, PROBES, SEEDS),
] + [("verify", f"r2m1:{m}", 20, PROBES, SEEDS) for m in (5, 6)] + [
    (command, model, 56, PROBES, SEEDS)
    for command in ("report", "theorems")
    for model in SUBMERSIONS
] + [("theorems", model, 8, ("random:64",), SEEDS) for model in SUBMERSIONS] + [
    ("report", model, points, ("all",), (42,)) for model in SUBMERSIONS for points in (1, 11)
] + [("report", "horizontal-xi", 20, ("first",), SEEDS, "--box=-1,1")] + [
    ("report", "vertical-xi", 11, ("first",), SEEDS, "--tol-curv=1e-16", "--tol-d2curv=1e-16"),
    ("theorems", "vertical-xi", 11, ("all",), SEEDS, "--theorems=CRH1"),
]


HELP = {"oneill-lab": [], "verify": ["verify"], "theorems": ["theorems"], "report": ["report"]}
BAD_ARGV = {
    "points-negative": ["verify", "--points", "-1"],
    "box-not-lo-hi": ["verify", "--box", "2,x"],
    "theorem-unknown": ["theorems", "--theorems", "V1,V9"],
    "theorem-repeated": ["theorems", "--theorems", "V1,V1"],
    "probe-bad": ["theorems", "--probe", "random:0"],
    "tol-d1-negative": ["verify", "--tol-d1=-1e-8"],
}


def _parser_text(argv):
    """What ``main(argv)`` prints to standard output and standard error, and
    its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"{out.getvalue()}--- stderr\n{err.getvalue()}exit {code}\n"


def _script(name, *args):
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        check=False,
    )
    return f"{done.stdout}exit {done.returncode}\n"


def cli(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("out_dir", type=Path)
    out_dir = ap.parse_args(argv).out_dir.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(REPO)  # the model file is echoed as given, relative to the checkout

    codes = []
    for command, model, points, probes, seeds, *flags in RUNS:
        for seed in seeds:
            for probe in probes:
                slug = "-".join((command, Path(model).stem, str(points), str(seed), probe))
                # a flag --name=value adds -namevalue: -box-1,1 for --box=-1,1
                slug = slug.replace(":", "-") + "".join(f[1:].replace("=", "") for f in flags)
                argv = [
                    command, "--model", model, "--points", str(points),
                    "--seed", str(seed), "--probe", probe, "--no-timestamp",
                    "--out", str(out_dir / f"{slug}.json"),
                ] + flags
                with contextlib.redirect_stderr(io.StringIO()):
                    codes.append(f"{slug} {main(argv)}\n")
    (out_dir / "exit_codes.txt").write_text("".join(codes))
    os.environ["COLUMNS"] = "80"  # the width argparse formats help to
    for name, argv in HELP.items():
        (out_dir / f"help-{name}.txt").write_text(_parser_text(argv + ["--help"]))
    for name, argv in BAD_ARGV.items():
        (out_dir / f"usage-{name}.txt").write_text(_parser_text(argv))

    def normalized(text):
        lines = text.splitlines(keepends=True)
        text = "".join(line for line in lines if '"generated_at"' not in line)
        return text.replace(str(out_dir), "<out>").replace(str(REPO), "<checkout>")

    run_all = out_dir / "run_all"
    printed = normalized(_script("run_all.py", "--out-dir", str(run_all)))
    # its columns are padded to the length of the absolute paths
    (out_dir / "run_all.txt").write_text(
        "".join(" ".join(line.split()) + "\n" for line in printed.splitlines())
    )
    for report in run_all.glob("*.json"):
        report.write_text(normalized(report.read_text()))
    for seed in SEEDS:
        printed = _script("crh1_disambiguation.py", "--seed", str(seed))
        (out_dir / f"crh1-{seed}.txt").write_text(printed)
    print(
        f"{len(codes)} reports, {len(HELP)} help texts, {len(BAD_ARGV)} usage errors, "
        f"run_all.py and crh1_disambiguation.py -> {out_dir}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(cli())
