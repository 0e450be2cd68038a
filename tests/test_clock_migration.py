"""The integer clock moved the committed artifacts by summation noise only.

When the clock went from adding float milliseconds charge by charge to
counting events and deriving milliseconds from the counts, four
artifacts printed floats whose last digits depended on the summation
order.  ``tests/clock_migration/*.parent`` keeps each as it was before:
every byte that is not part of a float literal must be unchanged, and
every float must be within 1e-9 relative of its old value.  (A latency
is the difference of two large running totals, so its own noise is
relatively larger than a total's: ``serving_workload.txt``'s
smooth/serial ``p50_ms`` of ``8.354000000010274`` already carried
1.2e-12.)  The per-batch event counts of the charge goldens, not this
bound, are what catch a lost charge.

This check has done its job once the migration is in.  The next change
that alters one of these four artifacts deletes this module and
``tests/clock_migration/`` rather than re-recording the fixtures.
"""

import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).with_name("clock_migration")
MOVED = ["concurrent_workload.txt", "serving_workload.txt",
         "telemetry_trace.json", "telemetry_workload.txt"]

_FLOAT = re.compile(r"\d+\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+")


def _split(text):
    """The text between float literals, and the floats."""
    return _FLOAT.split(text), [float(f) for f in _FLOAT.findall(text)]


@pytest.mark.parametrize("name", MOVED)
def test_only_float_digits_moved_and_only_by_noise(name):
    old_text, old_floats = _split(
        (FIXTURES / f"{name}.parent").read_text())
    new_text, new_floats = _split((ROOT / "bench_results" / name).read_text())
    assert new_text == old_text
    assert len(new_floats) == len(old_floats)
    for new, old in zip(new_floats, old_floats, strict=True):
        assert math.isclose(new, old, rel_tol=1e-9, abs_tol=0.0), (new, old)
