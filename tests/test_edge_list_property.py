"""``load_edge_list`` on a binary stream against the line parser on
random text: the same Network field by field, or the same ParseError
message, and no warning."""

import io
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from commqual.graph import ParseError, _parse_lines, load_edge_list  # noqa: E402
from oracles import network_reference  # noqa: E402

ALPHABET = "0123456789 \t\r\n\x0b\x0c\x1c\x00\x01\x1d\x7f#+-_x"
SMALL = st.integers(0, 40)
IDS = st.one_of(SMALL, SMALL, SMALL, st.integers(-2**70, 2**70),
                st.sampled_from([2**63 - 1, 2**63, -2**63, 10**20]))
BLANK = st.text(" \t\x0b\x0c\x1c", max_size=2)
GAP = st.text(" \t\x0b\x0c\x1c", min_size=1, max_size=2)
EOL = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])
EDGE_LINE = st.builds("{}{}{}{}{}{}".format, BLANK, IDS, GAP, IDS, BLANK, EOL)
PIECE = st.one_of(EDGE_LINE, EDGE_LINE, EDGE_LINE, st.text(ALPHABET, max_size=10),
                  st.sampled_from(["# c 1 2\n", " \t# x\r\n", "\n"]))


def outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECE, max_size=12).map("".join))
def test_load_edge_list_agrees_with_line_parser(text):
    data = text.encode("ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: load_edge_list(io.BytesIO(data)))
    want = outcome(lambda: _parse_lines(io.BytesIO(data), 2)[0])
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    ref = network_reference([tuple(pair) for pair in want.tolist()])
    for field, value in ref.items():
        actual = getattr(got, field)
        actual = actual.tolist() if hasattr(actual, "tolist") else actual
        assert actual == value, field
