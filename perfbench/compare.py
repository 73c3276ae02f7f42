"""Compare a rendered oneill-lab report with a reference report.

Verdicts, check maps, failed and flagged lists, counts, and argmin points
must match exactly. Every other float may differ by at most
``RTOL * max(|a|, |b|) + ATOL``: the relative part admits rounding-level
changes in large quantities, the absolute part admits rounding noise in
residuals whose exact value is zero (``ATOL`` is 100 times below the
tightest tolerance tier of the program, 1e-10).
"""

from __future__ import annotations

from pathlib import PurePath

RTOL = 1e-9
ATOL = 1e-12

# Keys whose values (and everything under them) must match exactly.
EXACT_KEYS = frozenset(
    {
        "schema",
        "config",
        "checks",
        "failed",
        "flags_raised",
        "verdict",
        "points",
        "points_checked",
        "records",
        "checked",
        "violations",
        "equalities",
        "argmin_point",
        "surviving_variants",
        "base_pd_all",
        "base_pd_flags",
    }
)

# The timestamp is omitted with --no-timestamp; ignore it if present.
IGNORED_KEYS = frozenset({"generated_at"})


def _normalise_model(value):
    # A model file is echoed as the path it was given, which holds the
    # checkout's absolute location; compare its file name only.
    if isinstance(value, str) and ("/" in value or value.endswith(".json")):
        return PurePath(value).name
    return value


def _close(a, b) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _walk(ref, got, path, exact, out):
    if isinstance(ref, dict) and isinstance(got, dict):
        keys_ref = set(ref) - IGNORED_KEYS
        keys_got = set(got) - IGNORED_KEYS
        for key in sorted(keys_ref ^ keys_got):
            out.append(f"{path}.{key}: present in only one report")
        for key in ref:
            if key in keys_ref and key in keys_got:
                ref_val, got_val = ref[key], got[key]
                if path == ".config" and key == "model":
                    ref_val, got_val = _normalise_model(ref_val), _normalise_model(got_val)
                _walk(ref_val, got_val, f"{path}.{key}", exact or key in EXACT_KEYS, out)
        return
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            out.append(f"{path}: length {len(got)} != reference {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _walk(r, g, f"{path}[{i}]", exact, out)
        return
    if isinstance(ref, bool) or isinstance(got, bool):
        same = type(ref) is type(got) and ref == got
    elif not exact and isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        # A float that is exactly integral is rendered without a fraction,
        # so JSON may give an int on one side and a float on the other.
        if not _close(float(ref), float(got)):
            out.append(
                f"{path}: {got!r} differs from reference {ref!r} "
                f"beyond rtol={RTOL}, atol={ATOL}"
            )
        return
    else:
        same = ref == got
    if not same:
        out.append(f"{path}: {got!r} != reference {ref!r}")


def compare_reports(reference: dict, report: dict) -> list:
    """Mismatches of ``report`` against ``reference``; empty when they agree."""
    out = []
    _walk(reference, report, "", False, out)
    return out


def compare_outcome(reference: dict, report: dict) -> list:
    """The check made at seeds without a stored reference: the verdict and
    the set of failed checks."""
    out = []
    if report.get("verdict") != reference.get("verdict"):
        out.append(f".verdict: {report.get('verdict')!r} != expected {reference.get('verdict')!r}")
    got, want = set(report.get("failed", ())), set(reference.get("failed", ()))
    if got != want:
        out.append(
            f".failed: unexpected {sorted(got - want)}, missing {sorted(want - got)}"
        )
    return out
