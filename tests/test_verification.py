import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from refscale.citations import ParsedReference
from refscale.cli import RunConfig, write_artifacts
from refscale.openalex import ExternalWork
from refscale.verification import (
    FIELD_KINDS,
    FIELD_WEIGHTS,
    VERDICT_SCORES,
    FieldVerdict,
    RelevanceLabel,
    Status,
    VerificationResult,
    authenticity_score,
    classify_field,
    classify_status,
    relevance_value,
    results_from_jsonl,
    results_to_jsonl,
    verify_reference,
)

V = FieldVerdict


class TestClassifyField:
    def test_year_equality(self):
        assert classify_field("year", 1971, 1971) is V.MATCH
        assert classify_field("year", 1971, 1972) is V.CONTRADICTION

    def test_absent_beats_everything(self):
        assert classify_field("venue", "", "Some Venue") is V.ABSENT
        assert classify_field("authors", [], ["X, Y."]) is V.ABSENT

    def test_unconfirmed_when_candidate_missing(self):
        assert classify_field("identifier", "10.1/x", None) is V.UNCONFIRMED
        assert classify_field("year", 1971, None) is V.UNCONFIRMED

    def test_author_initials_abbrev(self):
        assert classify_field("authors", ["Dahl, R."], ["Dahl, Robert A."]) is V.ABBREV

    def test_author_exact_match(self):
        assert classify_field("authors", ["Dahl, R."], ["Dahl, R."]) is V.MATCH

    def test_author_subset_contains(self):
        got = classify_field("authors", ["Dahl, R."], ["Dahl, R.", "Lindblom, C."])
        assert got is V.CONTAINS

    def test_author_disjoint_contradiction(self):
        assert classify_field("authors", ["Dahl, R."], ["Mensah, K."]) is V.CONTRADICTION

    def test_author_wrong_initial_contradiction(self):
        assert classify_field("authors", ["Dahl, Q."], ["Dahl, Robert A."]) is V.CONTRADICTION

    def test_author_without_given_names_is_abbrev(self):
        assert classify_field("authors", ["Smith"], ["Smith, J."]) is V.ABBREV

    def test_identifier_within_longer_identifier_contains(self):
        assert classify_field("identifier", "10.1/abc", "10.1/abc.supp") is V.CONTAINS

    def test_identifier_doi_prefix_stripped(self):
        got = classify_field("identifier", "https://doi.org/10.1/ABC",
                             "doi: 10.1/abc")
        assert got is V.MATCH

    def test_identifier_mismatch(self):
        assert classify_field("identifier", "10.1/abc", "10.2/xyz") is V.CONTRADICTION

    def test_title_normalized_match(self):
        assert classify_field("title", "Polyarchy: Participation & Opposition",
                              "polyarchy participation  opposition") is V.MATCH

    def test_title_contains(self):
        assert classify_field("title", "Polyarchy",
                              "Polyarchy revisited") is V.CONTAINS

    def test_venue_iso_abbreviation(self):
        got = classify_field("venue", "J. Appl. Field Stud.",
                             "Journal of Applied Field Studies")
        assert got is V.ABBREV

    def test_venue_differing_only_by_stop_words(self):
        assert classify_field("venue", "Journal of Ecology", "Journal Ecology") is V.ABBREV
        assert classify_field("venue", "Annals of the Physics",
                              "Annals Physics") is V.ABBREV

    def test_venue_plain_mismatch(self):
        assert classify_field("venue", "Nature", "Science") is V.CONTRADICTION

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            classify_field("publisher", "a", "b")


class TestAuthenticity:
    def test_all_match_is_one(self):
        verdicts = {k: V.MATCH for k in FIELD_KINDS}
        assert authenticity_score(verdicts) == pytest.approx(1.0, abs=1e-12)

    def test_mixed_worked_value(self):
        verdicts = {"title": V.MATCH, "identifier": V.ABSENT,
                    "authors": V.ABBREV, "year": V.MATCH,
                    "venue": V.CONTRADICTION}
        expected = (0.25 + 0.15 + 0.15 - 0.15) / 0.75
        assert authenticity_score(verdicts) == pytest.approx(expected, abs=1e-12)

    def test_all_contradiction_clips_to_zero(self):
        verdicts = {k: V.CONTRADICTION for k in FIELD_KINDS}
        assert authenticity_score(verdicts) == 0.0

    def test_all_absent_rejected(self):
        with pytest.raises(ValueError):
            authenticity_score({k: V.ABSENT for k in FIELD_KINDS})

    def test_custom_penalty(self):
        verdicts = {"title": V.MATCH, "year": V.CONTRADICTION}
        soft = authenticity_score(verdicts, contradiction_penalty=-0.5)
        hard = authenticity_score(verdicts, contradiction_penalty=-1.0)
        assert soft > hard

    @given(st.dictionaries(
        st.sampled_from(list(FIELD_KINDS)),
        st.sampled_from([v for v in V if v is not V.ABSENT]),
        min_size=1, max_size=5,
    ))
    def test_range_invariant(self, verdicts):
        score = authenticity_score(verdicts)
        assert 0.0 <= score <= 1.0

    def test_monotone_in_single_field_upgrade(self):
        # Upgrading any one field's verdict never lowers the score.
        order = [V.CONTRADICTION, V.UNCONFIRMED, V.CONTAINS, V.ABBREV, V.MATCH]
        base = {k: V.UNCONFIRMED for k in FIELD_KINDS}
        for kind in FIELD_KINDS:
            prev = None
            for verdict in order:
                verdicts = dict(base)
                verdicts[kind] = verdict
                score = authenticity_score(verdicts)
                if prev is not None:
                    assert score >= prev - 1e-12
                prev = score


class TestRelevance:
    def test_values(self):
        assert relevance_value(RelevanceLabel.YES, 0.3) == 1.0
        assert relevance_value(RelevanceLabel.NO, 0.3) == 0.0
        assert relevance_value(RelevanceLabel.PARTIAL, 0.50) == 0.50
        assert relevance_value(RelevanceLabel.PARTIAL, 0.75) == 0.75

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            relevance_value(RelevanceLabel.PARTIAL, 1.5)


class TestStatus:
    def test_unmatched_is_unverified(self):
        assert classify_status({"title": V.UNCONFIRMED}, matched=False) is Status.UNVERIFIED

    def test_clean_match_is_verified(self):
        verdicts = {"title": V.MATCH, "year": V.MATCH, "authors": V.ABBREV,
                    "venue": V.UNCONFIRMED, "identifier": V.ABSENT}
        assert classify_status(verdicts, matched=True) is Status.VERIFIED

    def test_corrupted_field_is_verified_with_error(self):
        verdicts = {"title": V.MATCH, "year": V.CONTRADICTION}
        assert classify_status(verdicts, matched=True) is Status.VERIFIED_WITH_ERROR
        verdicts = {"title": V.ABBREV, "authors": V.CONTAINS}
        assert classify_status(verdicts, matched=True) is Status.VERIFIED_WITH_ERROR

    def test_weak_title_needs_human(self):
        verdicts = {"title": V.CONTAINS, "year": V.MATCH}
        assert classify_status(verdicts, matched=True) is Status.NEEDS_HUMAN


def _work(**over):
    base = dict(
        id="W1",
        title="Household adoption of solar microgrids",
        authors=["Okafor, A."],
        year=2019,
        venue="Journal of Applied Field Studies",
        doi="10.5555/demo.17",
        cited_by_count=10,
    )
    base.update(over)
    return ExternalWork(**base)


def _ref(**over):
    base = dict(
        authors=["Okafor, A."],
        year=2019,
        title="Household adoption of solar microgrids",
        venue="Journal of Applied Field Studies",
        identifier="https://doi.org/10.5555/demo.17",
        raw="",
    )
    base.update(over)
    return ParsedReference(**base)


class TestVerifyReference:
    def test_exact_match_verified(self, stopwords):
        res = verify_reference(_ref(), _work(), stopwords)
        assert res.status is Status.VERIFIED
        assert res.matched_candidate == "W1"
        assert res.authenticity == pytest.approx(1.0)
        assert res.verdicts["title"] is V.MATCH

    def test_no_candidates_unverified(self, stopwords):
        res = verify_reference(_ref(venue=None), None, stopwords)
        assert res.status is Status.UNVERIFIED
        assert res.matched_candidate is None and res.cited_by_count is None
        assert res.authenticity == 0.0
        assert res.verdicts == {"title": V.UNCONFIRMED, "identifier": V.UNCONFIRMED,
                                "authors": V.UNCONFIRMED, "year": V.UNCONFIRMED,
                                "venue": V.ABSENT}

    def test_unmatched_top_work_unverified(self, stopwords):
        wrong = _work(id="W9", title="Entirely unrelated study of oceans")
        res = verify_reference(_ref(), wrong, stopwords)
        assert res.status is Status.UNVERIFIED
        assert res.matched_candidate is None and res.cited_by_count is None

    def test_corrupted_year_flagged(self, stopwords):
        res = verify_reference(_ref(year=2021), _work(), stopwords)
        assert res.status is Status.VERIFIED_WITH_ERROR
        assert res.verdicts["year"] is V.CONTRADICTION
        assert res.authenticity < 1.0


_RESULTS = st.dictionaries(
    st.tuples(st.text(), st.text(), st.integers(min_value=0, max_value=99)),
    st.builds(
        VerificationResult,
        verdicts=st.fixed_dictionaries({k: st.sampled_from(FieldVerdict)
                                        for k in FIELD_KINDS}),
        authenticity=st.floats(min_value=0, max_value=1),
        status=st.sampled_from(Status),
        matched_candidate=st.none() | st.text(),
        cited_by_count=st.none() | st.integers(min_value=0),
    ),
    max_size=8,
)


class TestResultsJsonl:
    @settings(max_examples=100, deadline=None)
    @given(_RESULTS, st.text(min_size=1))
    def test_read_inverts_write(self, results, title):
        refs = {key: _ref(title=title) for key in results}
        with tempfile.TemporaryDirectory() as tmp:
            write_artifacts(RunConfig(output_dir=tmp),
                            {"verification.jsonl": results_to_jsonl(results, refs)})
            assert results_from_jsonl(Path(tmp) / "verification.jsonl") == results
