import itertools
import random
import re
from collections import Counter

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
        assert filter_evidence([ev(NAME_SERVICE, "M", 0.85)]) == []

    def test_knowledge_base_kept(self):
        e = [ev(KNOWLEDGE_BASE, "F", 1.0)]
        assert filter_evidence(e) == e

    def test_threshold_comparison(self):
        kept = filter_evidence([ev(IMAGE_SERVICE, "M", 0.95), ev(NAME_SERVICE, "F", 0.89)])
        assert kept == [ev(IMAGE_SERVICE, "M", 0.95)]


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

    def test_self_contradicting_source_dropped(self):
        evidence = [ev(NAME_SERVICE, "M", 0.95), ev(NAME_SERVICE, "F", 0.95),
                    ev(NAME_SERVICE, "M", 0.95)]
        assert resolve_gender(evidence) == ("U", NO_PROVENANCE)
        assert resolve_gender(evidence + [ev(MANUAL, "F")]) == ("F", MANUAL)

    def test_source_repeating_one_label_kept(self):
        assert resolve_gender([ev(IMAGE_SERVICE, "F", 0.95), ev(IMAGE_SERVICE, "F", 0.97)]) \
            == ("F", IMAGE_SERVICE)

    def test_self_contradicting_knowledge_base_falls_through(self):
        evidence = [ev(KNOWLEDGE_BASE, "M"), ev(KNOWLEDGE_BASE, "F"),
                    ev(NAME_SERVICE, "F", 0.95), ev(IMAGE_SERVICE, "F", 0.93)]
        assert resolve_gender(evidence) == ("F", AGREEMENT)
        assert resolve_gender(evidence[:3]) == ("F", NAME_SERVICE)
        assert resolve_gender(evidence[:2] + evidence[3:]) == ("F", IMAGE_SERVICE)

    @pytest.mark.parametrize("evidence, expected", [
        ([ev(KNOWLEDGE_BASE, "M"), ev(KNOWLEDGE_BASE, "F"), ev(NAME_SERVICE, "F", 0.95),
          ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "M", 0.93)], ("M", IMAGE_SERVICE)),
        ([ev(NAME_SERVICE, "M", 0.95), ev(NAME_SERVICE, "F", 0.95), ev(NAME_SERVICE, "M", 0.95),
          ev(IMAGE_SERVICE, "F", 0.93), ev(MANUAL, "M")], ("F", IMAGE_SERVICE)),
        ([ev(IMAGE_SERVICE, "M", 0.93), ev(IMAGE_SERVICE, "F", 0.93), ev(MANUAL, "F"),
          ev(MANUAL, "F")], ("F", MANUAL)),
    ], ids=["knowledge_base_and_name", "name", "image"])
    def test_contradicting_sources_resolve_independent_of_order(self, evidence, expected):
        results = {resolve_gender(list(p)) for p in itertools.permutations(evidence)}
        assert results == {expected}

    def test_lower_priority_never_overrides(self):
        base = [ev(NAME_SERVICE, "M", 0.95), ev(IMAGE_SERVICE, "M", 0.95)]
        resolved = resolve_gender(base)
        assert resolved == ("M", AGREEMENT)
        assert resolve_gender(base + [ev(MANUAL, "F")]) == resolved


class TestResolutionDecomposition:
    """annotate_speakers must reproduce the policy decomposition exactly:
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
        # every speaker lands in exactly the provenance it was built for,
        # so none falls through to NO_PROVENANCE
        assert Counter(r.provenance for r in records) == sizes


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
        # wrong JSON types that str() or float() would otherwise turn into values
        '{"speaker_id": null, "source": "knowledge_base", "label": "F", "confidence": 1.0}',
        '{"speaker_id": 42, "source": "knowledge_base", "label": "F", "confidence": 1.0}',
        '{"speaker_id": "s2", "source": "knowledge_base", "label": "F", "confidence": true}',
        '{"speaker_id": "s2", "source": "name_service", "label": "F", "confidence": "0.95"}',
    ])
    def test_bad_record_names_line(self, tmp_path, record):
        p = tmp_path / "ev.jsonl"
        good = '{"speaker_id": "s1", "source": "knowledge_base", "label": "F", "confidence": 1.0}'
        p.write_text(f"{good}\n{record}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"ev\.jsonl:2: bad evidence record"):
            load_evidence_fixture(p)

    def test_speaker_csv_round_trip(self, tmp_path):
        records = [
            SpeakerRecord("s1", "F", KNOWLEDGE_BASE),
            SpeakerRecord("s2", "U", NO_PROVENANCE),
        ]
        p = tmp_path / "speakers.csv"
        save_speaker_records(records, p)
        assert load_speaker_records(p) == records
        save_speaker_records(iter(records), p)
        assert load_speaker_records(p) == records

    @pytest.mark.parametrize("row, message", [
        ("s3,F", "not enough values"),
        ("s3,F,manual,", "too many values"),
        ("s3,Q,manual", "gender must be M, F or U, got 'Q'"),
        ("s3,F,rumour", "unknown provenance 'rumour'"),
    ])
    def test_bad_speaker_row_named(self, tmp_path, row, message):
        p = tmp_path / "speakers.csv"
        save_speaker_records([SpeakerRecord("s1", resolved_gender="F", provenance=MANUAL)], p)
        p.write_text(p.read_text(encoding="utf-8") + row + "\n", encoding="utf-8")
        pattern = rf"^{re.escape(str(p))}:3: bad speaker row: .*{message}"
        with pytest.raises(ValueError, match=pattern):
            load_speaker_records(p)

    def test_repeated_speaker_row_named(self, tmp_path):
        p = tmp_path / "speakers.csv"
        p.write_text("speaker_id,gender,provenance\ns1,M,manual\ns2,F,manual\ns1,F,manual\n",
                     encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:4: repeated speaker 's1'$"):
            load_speaker_records(p)

    @pytest.mark.parametrize("second", [SpeakerRecord("s1", "F", MANUAL),
                                        SpeakerRecord("s1", "M", MANUAL)])
    def test_save_refuses_repeated_speaker_before_opening(self, tmp_path, second):
        p = tmp_path / "speakers.csv"
        p.write_text("already here\n", encoding="utf-8")
        records = [SpeakerRecord("s1", "M", MANUAL), SpeakerRecord("s2", "U", NO_PROVENANCE),
                   second]
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: repeated speaker 's1'$"):
            save_speaker_records(records, p)
        assert p.read_text(encoding="utf-8") == "already here\n"

    def test_empty_speaker_file_named(self, tmp_path):
        p = tmp_path / "speakers.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}:1: bad speaker CSV header"):
            load_speaker_records(p)
