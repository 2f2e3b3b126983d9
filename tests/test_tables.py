"""Unit tests for the table renderer."""

from repro.tables import format_sci, render_table


def test_basic_alignment():
    text = render_table(["A", "Bee"], [(1, 2.5), (33, 4.125)])
    lines = text.splitlines()
    assert lines[0].startswith("A")
    assert set(lines[1]) == {"-"}
    assert "33" in lines[3]


def test_title_prepended():
    text = render_table(["X"], [(1,)], title="My Table")
    assert text.splitlines()[0] == "My Table"


def test_float_format_applied():
    text = render_table(["X"], [(3.14159,)], float_fmt="{:.1f}")
    assert "3.1" in text
    assert "3.14" not in text


def test_string_cells_passthrough():
    text = render_table(["X"], [("hello",)])
    assert "hello" in text


def test_empty_rows():
    text = render_table(["A", "B"], [])
    assert "A" in text


def test_format_sci():
    assert format_sci(40500000.0) == "4.05e+07"
    assert format_sci(0.5) == "5.00e-01"
