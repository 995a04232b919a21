import datetime
import itertools
import random

import pytest

from traitmt.annotate import (
    AGREEMENT,
    IMAGE_SERVICE,
    KNOWLEDGE_BASE,
    MANUAL,
    NAME_SERVICE,
    NO_PROVENANCE,
    GenderEvidence,
    SpeakerRecord,
    annotate_speakers,
    audit_resource,
    compute_age,
    filter_evidence,
    load_evidence_fixture,
    load_speaker_records,
    resolve_gender,
    save_speaker_records,
)


def ev(source, label, confidence=1.0):
    return GenderEvidence(source, label, confidence)


class TestFilterEvidence:
    def test_below_threshold_dropped(self):
        assert filter_evidence([ev(NAME_SERVICE, "M", 0.85)], 0.9) == []

    def test_knowledge_base_kept(self):
        e = [ev(KNOWLEDGE_BASE, "F", 1.0)]
        assert filter_evidence(e) == e

    def test_threshold_comparison(self):
        kept = filter_evidence([ev(IMAGE_SERVICE, "M", 0.95), ev(NAME_SERVICE, "F", 0.89)], 0.9)
        assert kept == [ev(IMAGE_SERVICE, "M", 0.95)]

    def test_threshold_zero_is_identity(self):
        e = [ev(NAME_SERVICE, "M", 0.0), ev(IMAGE_SERVICE, "F", 0.5)]
        assert filter_evidence(e, 0.0) == e

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            filter_evidence([], 1.5)


class TestResolveGender:
    def test_knowledge_base_wins(self):
        label, prov = resolve_gender(
            [ev(KNOWLEDGE_BASE, "F"), ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "M", 0.95)]
        )
        assert (label, prov) == ("F", KNOWLEDGE_BASE)

    def test_two_source_agreement(self):
        label, prov = resolve_gender([ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "M", 0.93)])
        assert (label, prov) == ("M", AGREEMENT)

    def test_two_source_disagreement_is_unknown(self):
        label, prov = resolve_gender([ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "F", 0.93)])
        assert (label, prov) == ("U", NO_PROVENANCE)

    def test_single_source(self):
        assert resolve_gender([ev(NAME_SERVICE, "F", 0.95)]) == ("F", NAME_SERVICE)
        assert resolve_gender([ev(IMAGE_SERVICE, "M", 0.92)]) == ("M", IMAGE_SERVICE)

    def test_manual_fallback(self):
        assert resolve_gender([ev(MANUAL, "F")]) == ("F", MANUAL)

    def test_empty_evidence(self):
        assert resolve_gender([]) == ("U", NO_PROVENANCE)

    def test_order_independence(self):
        evidence = [
            ev(KNOWLEDGE_BASE, "F"),
            ev(NAME_SERVICE, "M", 0.95),
            ev(IMAGE_SERVICE, "M", 0.93),
            ev(MANUAL, "M"),
        ]
        results = {resolve_gender(list(p)) for p in itertools.permutations(evidence)}
        assert results == {("F", KNOWLEDGE_BASE)}

    def test_lower_priority_never_overrides(self):
        base = [ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "M", 0.95)]
        resolved = resolve_gender(base)
        assert resolved == ("M", AGREEMENT)
        assert resolve_gender(base + [ev(MANUAL, "F")]) == resolved


class TestComputeAge:
    def test_plain_case(self):
        assert compute_age(datetime.date(1960, 1, 15), datetime.date(2005, 6, 1)) == 45

    def test_day_before_birthday(self):
        assert compute_age(datetime.date(1960, 6, 2), datetime.date(2005, 6, 1)) == 44

    def test_same_day(self):
        assert compute_age(datetime.date(2000, 1, 1), datetime.date(2000, 1, 1)) == 0

    def test_session_before_birth_rejected(self):
        with pytest.raises(ValueError):
            compute_age(datetime.date(2000, 1, 2), datetime.date(2000, 1, 1))


def record(i, gender="M", provenance=KNOWLEDGE_BASE):
    if gender == "U":
        provenance = NO_PROVENANCE
    return SpeakerRecord(speaker_id=f"s{i}", resolved_gender=gender, provenance=provenance)


class TestAudit:
    def test_coverage_and_perfect_accuracy(self):
        records = [record(i, "M", KNOWLEDGE_BASE) for i in range(73)]
        records += [record(100 + i, "U") for i in range(27)]
        gold = {f"s{i}": "M" for i in range(73)}
        report = audit_resource(records, gold)
        assert report.coverage[KNOWLEDGE_BASE] == pytest.approx(73.0)
        assert report.accuracy[KNOWLEDGE_BASE] == pytest.approx(100.0)

    def test_all_unknown_reports_na(self):
        records = [record(i, "U") for i in range(5)]
        report = audit_resource(records, {"s0": "M"})
        assert report.accuracy[NO_PROVENANCE] is None
        assert report.class_counts == {}
        assert "N/A" in report.as_text()

    def test_partial_accuracy(self):
        records = [record(i, "M", NAME_SERVICE) for i in range(4)]
        gold = {"s0": "M", "s1": "M", "s2": "M", "s3": "F"}
        report = audit_resource(records, gold)
        assert report.accuracy[NAME_SERVICE] == pytest.approx(75.0)

    def test_class_counts_sum_to_resolved(self):
        rng = random.Random(5)
        records = [
            record(i, rng.choice(["M", "F", "U"]), rng.choice([KNOWLEDGE_BASE, NAME_SERVICE]))
            for i in range(50)
        ]
        report = audit_resource(records, {"s0": "M"})
        resolved = sum(1 for r in records if r.resolved_gender != "U")
        assert sum(report.class_counts.values()) == resolved

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            audit_resource([], {"a": "M"})


class TestResolutionDecomposition:
    """The audit arithmetic must reproduce the policy decomposition exactly:
    knowledge base + agreement + each single source + manual = resolved."""

    def test_decomposition_on_synthetic_population(self):
        rng = random.Random(42)
        evidence = {}
        sizes = {
            KNOWLEDGE_BASE: 60,
            AGREEMENT: 20,
            NAME_SERVICE: 12,
            IMAGE_SERVICE: 5,
            MANUAL: 3,
        }
        i = 0
        for prov, n in sizes.items():
            for _ in range(n):
                label = rng.choice(["M", "F"])
                sid = f"mep{i:03d}"
                if prov == KNOWLEDGE_BASE:
                    evidence[sid] = [
                        ev(KNOWLEDGE_BASE, label),
                        ev(NAME_SERVICE, rng.choice(["M", "F"]), 0.95),
                    ]
                elif prov == AGREEMENT:
                    evidence[sid] = [
                        ev(NAME_SERVICE, label, 0.95),
                        ev(IMAGE_SERVICE, label, 0.92),
                    ]
                elif prov == NAME_SERVICE:
                    evidence[sid] = [ev(NAME_SERVICE, label, 0.95)]
                elif prov == IMAGE_SERVICE:
                    evidence[sid] = [ev(IMAGE_SERVICE, label, 0.97)]
                else:
                    evidence[sid] = [ev(MANUAL, label)]
                i += 1
        records = annotate_speakers(evidence)
        gold = {r.speaker_id: r.resolved_gender for r in records if r.resolved_gender != "U"}
        report = audit_resource(records, gold)
        for prov, n in sizes.items():
            assert report.provenance_counts[prov] == n
        parts = sum(report.provenance_counts.get(p, 0) for p in sizes)
        assert parts == sum(sizes.values()) == report.total


class TestFixtures:
    def test_fixture_round_trip(self, tmp_path):
        p = tmp_path / "ev.jsonl"
        lines = [
            '{"speaker_id": "s1", "source": "knowledge_base", "label": "F", "confidence": 1.0}',
            '{"speaker_id": "s1", "source": "name_service", "label": "F", "confidence": 0.93}',
            '{"speaker_id": "s2", "source": "image_service", "label": "M", "confidence": 0.91}',
        ]
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        evidence = load_evidence_fixture(p)
        assert set(evidence) == {"s1", "s2"}
        assert len(evidence["s1"]) == 2
        assert evidence["s2"][0].source == IMAGE_SERVICE

    def test_bad_fixture_line(self, tmp_path):
        p = tmp_path / "ev.jsonl"
        p.write_text('{"speaker_id": "s1"}\n', encoding="utf-8")
        with pytest.raises(ValueError):
            load_evidence_fixture(p)

    @pytest.mark.parametrize("record", [
        "[1, 2]",
        '{"speaker_id": "s1", "source": "knowledge_base", "label": "F", "confidence": null}',
    ])
    def test_bad_record_names_line(self, tmp_path, record):
        p = tmp_path / "ev.jsonl"
        good = '{"speaker_id": "s1", "source": "knowledge_base", "label": "F", "confidence": 1.0}'
        p.write_text(f"{good}\n{record}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"ev\.jsonl:2: bad evidence record"):
            load_evidence_fixture(p)

    def test_speaker_csv_round_trip(self, tmp_path):
        records = [
            SpeakerRecord("s1", "Jane Doe", "FR", datetime.date(1960, 2, 29), "F", KNOWLEDGE_BASE),
            SpeakerRecord("s2", "X", "DE", None, "U", NO_PROVENANCE),
        ]
        p = tmp_path / "speakers.csv"
        save_speaker_records(records, p)
        assert load_speaker_records(p) == records
