"""Reporting and runner utilities."""

import os

from repro.bench.reporting import (
    format_table,
    format_value,
    save_report,
)
from repro.bench.runner import run_cold
from repro.exec.scans import FullTableScan


def test_format_value():
    assert format_value(None) == "-"
    assert format_value(True) == "yes"
    assert format_value(0.0) == "0"
    assert format_value(1234567.0) == "1,234,567"
    assert format_value(0.123456) == "0.123"
    assert format_value(42) == "42"
    assert format_value(123456) == "123,456"


def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["bb", 22]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    assert len(lines) == 5


def test_save_report(tmp_path):
    path = save_report("unit", "hello", root=str(tmp_path))
    assert os.path.exists(path)
    with open(path) as fh:
        assert fh.read() == "hello\n"


def test_run_cold(small_table):
    db, table = small_table
    m = run_cold(db, "fs", FullTableScan(table), note="x")
    assert m.label == "fs"
    assert m.seconds > 0
    assert m.extras == {"note": "x"}
    again = run_cold(db, "fs", FullTableScan(table))
    assert again.seconds == m.seconds
