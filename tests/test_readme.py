"""The README's examples run as shown: every polynomial and element text
it writes parses, and its library block runs."""

import pathlib
import re

import pytest

from transverse import gf, poly

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
F9 = gf.field_create(3, 2)
SHOWN_AS_ERRORS = {"x0*"}


def inline_spans():
    return re.findall(r"`([^`\n]+)`", README)


def test_every_polynomial_shown_parses():
    forms = [s for s in inline_spans() if re.search(r"x\d", s)]
    # the input file example, the line under its header
    forms += re.findall(r"^p=\d+ m=\d+ n=\d+\n(.+)$", README, re.M)
    assert SHOWN_AS_ERRORS < set(forms) and len(forms) >= 7
    for text in forms:
        if text in SHOWN_AS_ERRORS:
            with pytest.raises(poly.ParseError):
                poly.parse_form(F9, text)
        else:
            assert not poly.parse_form(F9, text).is_zero(), text
    assert poly.parse_form(F9, "2*x0^2*x1") == poly.parse_form(F9, "2 x0^2 x1")


def test_every_element_text_shown_parses():
    elements = [s for s in inline_spans() if "t" in s and re.fullmatch(r"[\dt^*+\- ]+", s)]
    assert "2*t^2 + t + 1" in elements
    for text in elements:
        poly.parse_element(F9, text)


def test_library_in_five_lines_runs(capsys):
    block = re.search(
        r"## Library in five lines\n\n```python\n(.*?)```", README, re.S
    ).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out == "[True, True, True]\n"
