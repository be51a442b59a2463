"""Tests for the code-line counter, tests/code_lines.py."""

import code_lines

SAMPLE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the code


def area(r):
    """A function docstring."""
    # a comment line
    return math.pi * max(
        r,
        0.0,
    ) ** 2
'''


def test_counts_code_lines_only():
    """The import, the def and the four lines of the call: not the
    docstrings, the comment line or the blank lines."""
    assert code_lines.code_lines(SAMPLE) == 6


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines.code_lines('x = """two\nlines"""\n') == 2
