import pytest
from hypothesis import given, strategies as st

from refscale.citations import (
    ParseFailure,
    ParsedReference,
    content_word_overlap,
    content_words,
    normalize_title,
    parse_apa,
    split_reference_list,
    surname_of,
)

FULL = ("Okafor, A., & Moreau, B. (2019). Household adoption of solar "
        "microgrids: evidence from three districts. Journal of Applied "
        "Field Studies. https://doi.org/10.5555/demo.17")


class TestSplit:
    def test_preamble_and_markers_dropped(self):
        raw = "\n".join([
            "Here are the references:",
            "1. Okafor, A. (2019). A title. A venue.",
            "[2] Moreau, B. (2020). Another title. Venue.",
            "- Tanaka, C. (2021). Third title. Venue.",
            "",
            "I hope these help!",
        ])
        entries = split_reference_list(raw)
        assert len(entries) == 3
        assert entries[0].startswith("Okafor")
        assert entries[1].startswith("Moreau")
        assert entries[2].startswith("Tanaka")

    def test_empty_input_is_valid(self):
        assert split_reference_list("") == []
        assert split_reference_list("I cannot provide references.") == []

    def test_lines_without_year_are_commentary(self):
        raw = "Note: all sources are peer reviewed.\n3) Diallo, D. (1999). X y z. V."
        assert len(split_reference_list(raw)) == 1


class TestParse:
    def test_full_citation_fields(self):
        ref = parse_apa(FULL)
        assert ref.authors == ["Okafor, A.", "Moreau, B."]
        assert ref.year == 2019
        assert ref.title == ("Household adoption of solar microgrids: "
                             "evidence from three districts")
        assert ref.venue == "Journal of Applied Field Studies"
        assert ref.identifier == "https://doi.org/10.5555/demo.17"

    def test_single_author_no_identifier(self):
        ref = parse_apa("Petrov, E. (2005). Short title. Some Venue.")
        assert ref.authors == ["Petrov, E."]
        assert ref.identifier is None
        assert ref.venue == "Some Venue"

    def test_three_authors_comma_form(self):
        ref = parse_apa(
            "Alvarez, F. G., Osei, H., & Novak, J. (2010). Title here. Venue."
        )
        assert ref.authors == ["Alvarez, F. G.", "Osei, H.", "Novak, J."]

    def test_no_year_raises(self):
        with pytest.raises(ParseFailure) as err:
            parse_apa("Okafor, A. A title without a year. Venue.")
        assert err.value.reason == "no parenthesized year"
        assert "without a year" in err.value.raw

    def test_empty_raises(self):
        with pytest.raises(ParseFailure):
            parse_apa("   ")

    def test_no_author_text_raises(self):
        with pytest.raises(ParseFailure):
            parse_apa("(2019). Title. Venue.")

    def test_missing_venue_is_none(self):
        ref = parse_apa("Haddad, K. (2012). Only a title")
        assert ref.venue is None
        assert ref.title == "Only a title"

    def test_period_inside_parentheses_does_not_end_title(self):
        ref = parse_apa("Lund, P. (2014). Yields after drought (see Fig. 2) in the Sahel. "
                        "Journal of Arid Lands.")
        assert ref.title == "Yields after drought (see Fig. 2) in the Sahel"
        assert ref.venue == "Journal of Arid Lands"

    def test_state_abbreviation_does_not_end_title(self):
        ref = parse_apa("Lund, P. (2014). Water rights in the U.S. West. Water Research.")
        assert ref.title == "Water rights in the U.S. West"
        assert ref.venue == "Water Research"

    def test_doi_bare_form(self):
        ref = parse_apa("Ivanova, L. (2001). T i t l e. Venue. doi: 10.1000/xyz123")
        assert ref.identifier.startswith("10.1000") or "doi" in ref.identifier.lower()

    def test_year_bounds_enforced(self):
        with pytest.raises(ValueError):
            ParsedReference(authors=["A"], year=1200, title="t", venue=None,
                            identifier=None, raw="")

    def test_title_required(self):
        with pytest.raises(ValueError):
            ParsedReference(authors=["A"], year=2000, title="", venue=None,
                            identifier=None, raw="")


class TestNormalize:
    def test_diacritics_and_case(self):
        assert normalize_title("Café Résumé") == "caferesume"

    def test_punctuation_dropped(self):
        assert normalize_title("A Tale: of two, cities!") == "ataleoftwocities"

    @given(st.text(max_size=200))
    def test_idempotent_and_non_increasing(self, s):
        once = normalize_title(s)
        assert normalize_title(once) == once
        assert all(ch.isalnum() for ch in once)


class TestContentWords:
    def test_stopwords_removed(self, stopwords):
        words = content_words("The dynamics of the election", stopwords)
        assert "the" not in words and "of" not in words
        assert {"dynamics", "election"} <= words

    def test_overlap_denominator_is_claimed(self, stopwords):
        a = "solar adoption"
        b = "solar adoption in rural kenya with extra terms"
        assert content_word_overlap(a, b, stopwords) == 1.0
        assert content_word_overlap(b, a, stopwords) < 1.0

    def test_empty_claimed_is_zero(self, stopwords):
        assert content_word_overlap("the of and", stopwords=stopwords,
                                    b="anything") == 0.0

    def test_disjoint_is_zero(self, stopwords):
        assert content_word_overlap("alpha beta", "gamma delta", stopwords) == 0.0


class TestSurname:
    def test_comma_form(self):
        assert surname_of("Okafor, A.") == "Okafor"

    def test_plain_form(self):
        assert surname_of("Ada Okafor") == "Okafor"

    def test_empty(self):
        assert surname_of("  ") == ""
