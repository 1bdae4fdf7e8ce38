"""Report codec tests: structured rendering and its inverse."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from veracity.report import Report, Section, parse_structured, to_structured


class TestToStructured:
    def test_single_section(self):
        report = Report((Section("check a.vlp X", (("status", "ok"),)),))
        assert to_structured(report) == "[check a.vlp X]\nstatus=ok\n"

    def test_sections_are_blank_line_separated(self):
        report = Report(
            (
                Section("one", (("k", "v"),)),
                Section("two", ()),
            )
        )
        assert to_structured(report) == "[one]\nk=v\n\n[two]\n"

    def test_empty_report(self):
        assert to_structured(Report(())) == ""

    def test_values_may_contain_equals(self):
        report = Report((Section("s", (("k", "a=b=c"),)),))
        assert parse_structured(to_structured(report)) == report

    def test_line_breaks_are_rejected(self):
        with pytest.raises(ValueError):
            to_structured(Report((Section("a\nb", ()),)))
        with pytest.raises(ValueError):
            to_structured(Report((Section("s", (("k", "a\nb"),)),)))

    def test_bad_keys_are_rejected(self):
        for key in ("", "a=b", "[k"):
            with pytest.raises(ValueError):
                to_structured(Report((Section("s", ((key, "v"),)),)))


class TestParseStructured:
    def test_field_before_header_fails(self):
        with pytest.raises(ValueError):
            parse_structured("k=v\n")

    def test_unrecognized_line_fails(self):
        with pytest.raises(ValueError):
            parse_structured("[s]\nnot a field\n")

    def test_empty_field_key_fails_with_its_line(self):
        with pytest.raises(ValueError) as exc:
            parse_structured("[a]\n=b\n")
        assert str(exc.value) == "line 2: empty field key"

    def test_empty_input(self):
        assert parse_structured("") == Report(())

    def test_extra_blank_lines_are_harmless(self):
        text = "\n\n[s]\nk=v\n\n\n[t]\n\n"
        assert parse_structured(text) == Report(
            (Section("s", (("k", "v"),)), Section("t", ()))
        )


# Every character but "\n" and "\r", surrogates and the other line breaks
# str.splitlines knows (U+2028, "\x1c", "\x85" and the rest) among them.
_chars = st.characters(exclude_categories=(), exclude_characters="\n\r")
_names = st.text(alphabet=_chars, max_size=30)
_keys = st.text(alphabet=_chars, min_size=1, max_size=15).filter(
    lambda key: "=" not in key and not key.startswith("[")
)
_values = st.text(alphabet=_chars, max_size=30)
_reports = st.builds(
    Report,
    st.lists(
        st.builds(
            Section,
            _names,
            st.lists(st.tuples(_keys, _values), max_size=5).map(tuple),
        ),
        max_size=5,
    ).map(tuple),
)


class TestRoundTrip:
    @given(_reports)
    def test_parse_inverts_render(self, report):
        assert parse_structured(to_structured(report)) == report

    @pytest.mark.parametrize(
        "char", ["\u2028", "\u2029", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85"]
    )
    def test_other_line_breaks_read_back(self, char):
        report = Report((Section(f"s{char}t", ((f"k{char}", f"x{char}y"), (char, char))),))
        assert parse_structured(to_structured(report)) == report

    def test_crlf_line_ends_are_read_as_lf(self):
        text = "[s]\r\nk=v\r\n\r\n[t]\r\n"
        assert parse_structured(text) == Report((Section("s", (("k", "v"),)), Section("t", ())))
