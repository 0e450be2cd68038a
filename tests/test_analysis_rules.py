"""The invariant linter: every rule fires on its bad fixture and stays
quiet on its good one; suppressions are honoured and audited."""

from pathlib import Path

from repro.analysis import analyze
from repro.analysis.rules import all_rules

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def lint(name, select=None):
    return analyze([str(FIXTURES / name)], select=select)


def codes(result):
    return [d.code for d in result.diagnostics]


def test_registry_has_the_six_rules():
    assert [r.code for r in all_rules()] == [
        "RPL101", "RPL102", "RPL103", "RPL104", "RPL105", "RPL106",
    ]
    for rule in all_rules():
        assert rule.name
        assert len(rule.rationale) > 40  # --explain has something to say


# -- RPL101 -------------------------------------------------------------------


def test_rpl101_flags_wallclock_and_entropy():
    result = lint("rpl101_bad.py", select={"RPL101"})
    assert not result.clean
    assert set(codes(result)) == {"RPL101"}
    messages = " ".join(d.message for d in result.diagnostics)
    assert "time.time" in messages
    assert "perf_counter" in messages
    assert "datetime.now" in messages
    assert "uuid.uuid4" in messages
    assert "without a seed" in messages
    assert "random.random" in messages
    assert len(result.diagnostics) == 7


def test_rpl101_quiet_on_seeded_randomness():
    assert lint("rpl101_good.py", select={"RPL101"}).clean


# -- RPL102 -------------------------------------------------------------------


def test_rpl102_flags_order_sensitive_set_consumption():
    result = lint("rpl102_bad.py", select={"RPL102"})
    assert codes(result) == ["RPL102"] * 3
    wheres = " ".join(d.message for d in result.diagnostics)
    assert "for loop" in wheres
    assert "list()" in wheres
    assert "str.join()" in wheres


def test_rpl102_quiet_on_sorted_and_folds():
    assert lint("rpl102_good.py", select={"RPL102"}).clean


# -- RPL103 -------------------------------------------------------------------


def test_rpl103_flags_unguarded_and_unclosed_windows():
    result = lint("rpl103_bad.py", select={"RPL103"})
    assert codes(result) == ["RPL103"] * 2
    unguarded, unclosed = result.diagnostics
    assert "not guarded by a finally" in unguarded.message
    assert "never closed" in unclosed.message


def test_rpl103_accepts_both_finally_shapes_and_allows():
    # One trailing allow and one standalone (next-line) allow.
    result = lint("rpl103_good.py", select={"RPL103"})
    assert result.clean
    assert result.suppressions_used == 2


# -- RPL104 -------------------------------------------------------------------


def test_rpl104_flags_charges_in_telemetry_modules():
    result = lint("telemetry/rpl104_bad.py", select={"RPL104"})
    assert codes(result) == ["RPL104"] * 5
    messages = [d.message for d in result.diagnostics]
    apis = [m.split("()")[0].split()[-1] for m in messages if "()" in m]
    assert apis == ["get_page", "charge_inspect", "charge_exchange",
                    "touch_pages"]
    assert "the clock's event counts" in messages[3]


def test_rpl104_quiet_on_pure_observation():
    assert lint("telemetry/rpl104_good.py", select={"RPL104"}).clean


def test_rpl104_ignores_modules_outside_telemetry():
    # The same charging code outside a telemetry/ dir is legitimate.
    result = lint("rpl103_good.py", select={"RPL104"})
    assert result.clean


# -- RPL105 -------------------------------------------------------------------


def test_rpl105_flags_float_arithmetic_on_counters():
    result = lint("rpl105_bad.py", select={"RPL105"})
    assert codes(result) == ["RPL105"] * 4
    assert ".counts mutated" in result.diagnostics[-1].message
    reasons = " ".join(d.message for d in result.diagnostics)
    assert "true division" in reasons
    assert "float() cast" in reasons
    assert "float literal" in reasons


def test_rpl105_quiet_on_integer_arithmetic():
    assert lint("rpl105_good.py", select={"RPL105"}).clean


# -- RPL106 -------------------------------------------------------------------


def test_rpl106_flags_protocol_less_operators_transitively():
    result = lint("rpl106_bad.py", select={"RPL106"})
    messages = [d.message for d in result.diagnostics]
    assert codes(result) == ["RPL106"] * len(messages)
    missing = [m for m in messages if "does not implement batches()" in m]
    overrides = [m for m in messages if "overrides rows()" in m]
    assert len(missing) + len(overrides) == len(messages)
    # No batches() anywhere in the ancestry — inherited silence included,
    # and a rows() body is no substitute.
    assert [m.split()[2] for m in missing] == \
        ["Silent", "SilentChild", "RowsOnly"]
    # A rows() override is flagged even beside a batches() body.
    assert [m.split()[2] for m in overrides] == ["RowEngine", "RowsOnly"]


def test_rpl106_accepts_inherited_protocol_and_abstract_bases():
    assert lint("rpl106_good.py", select={"RPL106"}).clean


# -- engine mechanics ---------------------------------------------------------


def test_unused_suppression_is_reported():
    result = lint("suppress_unused.py")
    assert codes(result) == ["RPL100"]
    assert "unused suppression" in result.diagnostics[0].message


def test_used_suppression_counts_and_silences():
    result = lint("suppress_used.py")
    assert result.clean
    assert result.suppressions_used == 1


def test_suppression_for_unselected_rule_is_not_unused():
    # Only RPL105 runs; the RPL101 allow never had a chance to fire.
    result = lint("suppress_unused.py", select={"RPL105"})
    assert result.clean


def test_syntax_error_becomes_rpl000():
    result = lint("rpl000_syntax_error.py")
    assert codes(result) == ["RPL000"]
    assert "syntax error" in result.diagnostics[0].message


def test_diagnostics_sorted_and_renderable():
    result = analyze([
        str(FIXTURES / "rpl101_bad.py"),
        str(FIXTURES / "rpl105_bad.py"),
    ])
    keys = [(d.file, d.line, d.col, d.code) for d in result.diagnostics]
    assert keys == sorted(keys)
    for diag in result.diagnostics:
        rendered = diag.render()
        assert diag.code in rendered
        assert f":{diag.line}:" in rendered


def test_repo_tree_is_clean():
    """The gate this PR establishes: the whole tree lints clean."""
    root = Path(__file__).resolve().parent.parent
    targets = [str(root / d) for d in
               ("src", "tests", "benchmarks", "examples")
               if (root / d).is_dir()]
    result = analyze(targets)
    assert result.clean, "\n".join(d.render() for d in result.diagnostics)
