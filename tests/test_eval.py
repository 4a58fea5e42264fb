import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignkit.alignment import AlignmentSet
from alignkit.errors import DataFormatError
from alignkit.evaluation import (
    GoldAlignment,
    aer,
    evaluate_corpus,
    format_report,
    parse_gold,
    precision_recall,
    write_report_tsv,
)


def aset(links, m=8, n=8):
    return AlignmentSet(links=frozenset(links), m=m, n=n)


class TestAer:
    def test_perfect_alignment_scores_zero(self):
        links = {(0, 0), (1, 1)}
        assert aer(links, links, links) == 0.0

    def test_fully_wrong_alignment_scores_one(self):
        assert aer({(0, 1)}, {(0, 0)}, {(0, 0)}) == 1.0

    def test_partial_overlap(self):
        a = {(1, 1)}
        s = {(1, 1), (2, 2)}
        assert aer(a, s, s) == pytest.approx(1 / 3)

    def test_empty_everything_scores_zero(self):
        assert aer(set(), set(), set()) == 0.0

    def test_sure_links_are_implicitly_possible(self):
        # A link matching only S still counts in the A n P term.
        a = {(0, 0)}
        assert aer(a, {(0, 0)}, set()) == 0.0

    def test_possible_links_forgive_precision_but_not_recall(self):
        a = {(0, 0), (1, 1)}
        s = {(0, 0)}
        p = {(0, 0), (1, 1)}
        # |A n S| = 1, |A n P| = 2, denom = 3
        assert aer(a, s, p) == 0.0
        assert precision_recall(a, s, p) == (1.0, 1.0, 1.0)


class TestPrecisionRecall:
    def test_perfect(self):
        links = {(0, 0), (1, 1)}
        assert precision_recall(links, links, links) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        assert precision_recall({(0, 1)}, {(1, 0)}, {(1, 0)}) == (0.0, 0.0, 0.0)

    def test_half_precision_full_recall(self):
        a = {(1, 1), (3, 3)}
        s = {(1, 1)}
        p, r, f1 = precision_recall(a, s, s | {(2, 2)})
        assert p == 0.5
        assert r == 1.0
        assert f1 == pytest.approx(2 * 0.5 / 1.5)

    def test_empty_sides_count_as_perfect(self):
        assert precision_recall(set(), {(0, 0)}, {(0, 0)})[0] == 1.0
        assert precision_recall({(0, 0)}, set(), set())[1] == 1.0
        p, r, f1 = precision_recall(set(), set(), set())
        assert (p, r, f1) == (1.0, 1.0, 1.0)


class TestParseGold:
    def test_default_flag_is_sure(self):
        gold = parse_gold(["1 1 1"])
        s, p = gold.sentences[1]
        assert s == p == frozenset({(0, 0)})

    def test_explicit_flags(self):
        gold = parse_gold(["1 1 1 S", "1 2 3 P"])
        s, p = gold.sentences[1]
        assert s == frozenset({(0, 0)})
        assert p == frozenset({(0, 0), (1, 2)})

    def test_possible_only_sentence(self):
        gold = parse_gold(["1 2 3 P"])
        s, p = gold.sentences[1]
        assert s == frozenset()
        assert p == frozenset({(1, 2)})

    def test_positions_are_one_based(self):
        gold = parse_gold(["7 3 5 S"])
        assert gold.sentences[7][0] == frozenset({(2, 4)})
        with pytest.raises(DataFormatError, match="1-based"):
            parse_gold(["1 0 1 S"])

    @pytest.mark.parametrize("sid", ["0", "-2"])
    def test_sentence_ids_are_one_based(self, sid):
        with pytest.raises(DataFormatError, match="gold line 2: sentence ids are 1-based"):
            parse_gold(["1 1 1 S", f"{sid} 1 1 S"])

    def test_errors_name_the_line(self):
        with pytest.raises(DataFormatError, match="line 1"):
            parse_gold(["1 x 1 S"])
        with pytest.raises(DataFormatError, match="line 2"):
            parse_gold(["1 1 1 S", "1 1"])
        with pytest.raises(DataFormatError, match="line 1"):
            parse_gold(["1 1 1 Q"])

    def test_blank_lines_and_ids_collected(self):
        gold = parse_gold(["", "3 1 1 S", "", "1 1 2 P"])
        assert gold.ids() == [1, 3]


class TestEvaluateCorpus:
    def test_single_sentence_matches_sentence_metrics(self):
        gold = parse_gold(["1 2 2 S", "1 3 3 S"])
        report = evaluate_corpus([aset({(1, 1)})], gold)
        assert report.aer == pytest.approx(1 / 3)
        assert report.per_sentence[1].aer == pytest.approx(1 / 3)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.evaluated == 1

    def test_counts_pool_before_dividing(self):
        # Sentence 1 perfect (2 sure links), sentence 2 empty hypothesis
        # with 1 sure link: pooled AER = 1 - (2 + 2) / (2 + 3), not the
        # mean of the per-sentence values 0 and 1.
        gold = parse_gold(["1 1 1 S", "1 2 2 S", "2 1 1 S"])
        hyps = [aset({(0, 0), (1, 1)}), aset(set())]
        report = evaluate_corpus(hyps, gold)
        assert report.aer == pytest.approx(1 - 4 / 5)
        mean_of_sentences = (
            report.per_sentence[1].aer + report.per_sentence[2].aer
        ) / 2
        assert report.aer != pytest.approx(mean_of_sentences)

    def test_unmatched_sentences_are_reported(self):
        gold = parse_gold(["1 1 1 S", "4 1 1 S"])
        report = evaluate_corpus([aset({(0, 0)}), aset({(0, 0)})], gold)
        assert report.skipped_hypotheses == [2]
        assert report.missing_hypotheses == [4]
        assert report.evaluated == 1
        assert report.aer == 0.0  # only the matched sentence counts

    def test_sure_links_count_as_possible_in_every_score(self):
        # A hand-built gold need not list its sure links among the possible.
        sure, possible = {(0, 0)}, set()
        gold = GoldAlignment({1: (frozenset(sure), frozenset(possible))})
        report = evaluate_corpus([aset({(0, 0)})], gold)
        sentence = report.per_sentence[1]
        p, r, f1 = precision_recall({(0, 0)}, sure, possible)
        assert (report.aer, report.precision, report.recall, report.f1) == (
            sentence.aer, sentence.precision, sentence.recall, sentence.f1
        ) == (aer({(0, 0)}, sure, possible), p, r, f1) == (0.0, 1.0, 1.0, 1.0)

    def test_no_matches_yields_zero_denominator_defaults(self):
        gold = parse_gold(["9 1 1 S"])
        report = evaluate_corpus([aset(set())], gold)
        assert report.evaluated == 0
        assert report.aer == 0.0
        assert report.precision == 1.0 and report.recall == 1.0


links_strategy = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12
)


class TestMetricProperties:
    @given(a=links_strategy, s=links_strategy)
    @settings(max_examples=200, deadline=None)
    def test_aer_complements_f1_when_sure_equals_possible(self, a, s):
        # With S = P the AER formula collapses to 1 - F1.
        p, r, f1 = precision_recall(a, s, s)
        value = aer(a, s, s)
        if a or s:
            assert value == pytest.approx(1.0 - f1, abs=1e-12)
        else:
            assert value == 0.0

    @given(a=links_strategy, s=links_strategy, extra=links_strategy)
    @settings(max_examples=200, deadline=None)
    def test_aer_within_unit_interval(self, a, s, extra):
        value = aer(a, s, s | extra)
        assert 0.0 <= value <= 1.0

    @given(a=links_strategy, s=links_strategy)
    @settings(max_examples=200, deadline=None)
    def test_adding_a_sure_hit_never_hurts(self, a, s):
        if not s - a:
            return
        hit = sorted(s - a)[0]
        assert aer(a | {hit}, s, s) <= aer(a, s, s) + 1e-12


class TestReports:
    def make_report(self):
        gold = parse_gold(["1 2 2 S", "1 3 3 S"])
        return evaluate_corpus([aset({(1, 1)})], gold)

    def test_tsv_round_trips_metric_values(self):
        report = self.make_report()
        out = io.StringIO()
        write_report_tsv(report, out)
        rows = dict(
            line.split("\t") for line in out.getvalue().strip().split("\n")
        )
        assert float(rows["aer"]) == report.aer
        assert float(rows["precision"]) == report.precision
        assert int(rows["links"]) == 1
        assert int(rows["sure"]) == 2
        assert int(rows["evaluated"]) == 1

    def test_human_summary_mentions_the_metrics(self):
        text = format_report(self.make_report())
        assert "AER:       0.3333" in text
        assert "precision: 1.0000" in text
        assert "recall:    0.5000" in text
        assert "sentences evaluated: 1" in text
