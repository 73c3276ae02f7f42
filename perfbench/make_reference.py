"""Write the reference reports the benchmark compares against.

    python3 perfbench/make_reference.py

Runs every operation of every workload once at the default seed and stores
its report under ``perfbench/reference/<workload>/``. The stored reports are
part of the benchmark: regenerate them only in a change that redefines the
benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    from oneill_lab import cli

    bad = 0
    for workload in WORKLOADS.values():
        for op in workload.ops:
            out = workload.reference_path(op)
            out.parent.mkdir(parents=True, exist_ok=True)
            with contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(op.argv(ROOT, DEFAULT_SEED, out))
            # Store a file model by its checkout-relative path, not by the
            # absolute path it was run with.
            arg = op.model_arg(ROOT)
            out.write_text(out.read_text().replace(json.dumps(arg), json.dumps(op.model)))
            status = "ok" if code == op.exit_code else f"UNEXPECTED (wanted {op.exit_code})"
            print(f"{workload.name:24s} {op.slug:28s} exit {code}  {status}")
            bad += code != op.exit_code
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
