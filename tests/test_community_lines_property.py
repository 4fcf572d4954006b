"""``parse_community_lines`` on a binary stream, which takes the block
reader, against a text stream of the same text, which takes the line
parser, on random text: the same member lists, or the same ParseError
message, and no warning."""

import io
import warnings

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from commqual.graph import ParseError, parse_community_lines  # noqa: E402

ALPHABET = "0123456789 \t\r\n\x0b\x0c\x1c\x00\x01\x1d\x7f#+-_x"
SMALL = st.integers(0, 40)
IDS = st.one_of(SMALL, SMALL, SMALL, st.integers(-2**70, 2**70),
                st.sampled_from([2**63 - 1, 2**63, -2**63, 10**20]))
BLANK = st.text(" \t\x0b\x0c\x1c", max_size=2)
GAP = st.text(" \t\x0b\x0c\x1c", min_size=1, max_size=2)
EOL = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])
MEMBERS = st.lists(st.tuples(IDS, GAP), min_size=1, max_size=5).map(
    lambda pairs: "".join(f"{i}{gap}" for i, gap in pairs))
COMMUNITY_LINE = st.builds("{}{}{}".format, BLANK, MEMBERS, EOL)
PIECE = st.one_of(COMMUNITY_LINE, COMMUNITY_LINE, COMMUNITY_LINE,
                  st.text(ALPHABET, max_size=10),
                  st.sampled_from(["# c 1 2\n", " \t# x\r\n", "\n", "1 2 # c\n"]))


def outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=400, deadline=None)
@given(st.lists(PIECE, max_size=12).map("".join))
# np.fromstring reads a blank buffer as [0] and a lone sign as 0
@example("  \n\n").via("blank lines")
@example("1 -\n").via("lone sign")
@example("1 2\n+\n").via("lone sign line")
def test_parse_community_lines_agrees_with_line_parser(text):
    data = text.encode("ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(lambda: parse_community_lines(io.BytesIO(data)))
    assert got == outcome(lambda: parse_community_lines(io.StringIO(text)))
    if not isinstance(got, str):  # plain int lists, as the line parser gives
        assert all(type(c) is list and all(type(m) is int for m in c)
                   for c in got)
