"""Speaker gender resolution from multiple evidence sources.

Three automatic sources feed the resolution policy: a curated knowledge
base (trusted outright), a first-name service and an image service (both
probabilistic, confidence-filtered).  Remaining speakers fall back to
manual annotation.  The policy is:

  1. knowledge-base evidence wins when present;
  2. name and image service agreeing -> the agreed label;
  3. name and image service disagreeing -> Unknown (manual queue);
  4. exactly one of the two -> that label;
  5. manual annotation, if present;
  6. otherwise Unknown.

Live HTTP clients are out of scope; evidence is read from JSON-lines
fixture files.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass

from .corpus import GENDERS

KNOWLEDGE_BASE = "knowledge_base"
NAME_SERVICE = "name_service"
IMAGE_SERVICE = "image_service"
MANUAL = "manual"
EVIDENCE_SOURCES = (KNOWLEDGE_BASE, NAME_SERVICE, IMAGE_SERVICE, MANUAL)

# provenance values additionally include the two-source agreement case
AGREEMENT = "agreement"
NO_PROVENANCE = "none"
PROVENANCES = EVIDENCE_SOURCES + (AGREEMENT, NO_PROVENANCE)

CONFIDENCE_THRESHOLD = 0.9  # evidence below this confidence is dropped


@dataclass(frozen=True)
class GenderEvidence:
    source: str
    label: str
    confidence: float

    def __post_init__(self):
        if self.source not in EVIDENCE_SOURCES:
            raise ValueError(f"unknown evidence source {self.source!r}")
        if self.label not in ("M", "F"):
            raise ValueError(f"evidence label must be M or F, got {self.label!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0,1], got {self.confidence}")
        if self.source in (KNOWLEDGE_BASE, MANUAL) and self.confidence != 1.0:
            raise ValueError(f"{self.source} evidence must carry confidence 1.0")


@dataclass
class SpeakerRecord:
    speaker_id: str
    resolved_gender: str = "U"
    provenance: str = NO_PROVENANCE

    def __post_init__(self):
        if self.resolved_gender not in GENDERS:
            raise ValueError(f"gender must be M, F or U, got {self.resolved_gender!r}")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.resolved_gender != "U" and self.provenance == NO_PROVENANCE:
            raise ValueError("resolved gender requires a provenance")


def filter_evidence(evidence):
    """Keep evidence with confidence >= CONFIDENCE_THRESHOLD, order
    preserved."""
    return [e for e in evidence if e.confidence >= CONFIDENCE_THRESHOLD]


def _label_by_source(evidence) -> dict:
    """Collapse an evidence list to one label per source.

    A source whose entries disagree with each other is discarded, which
    keeps resolution independent of evidence order.
    """
    labels: dict[str, set] = {}
    for e in evidence:
        labels.setdefault(e.source, set()).add(e.label)
    return {source: found.pop() for source, found in labels.items() if len(found) == 1}


def resolve_gender(evidence) -> tuple[str, str]:
    """Apply the priority policy to confidence-filtered evidence.

    Returns (label, provenance) where label is M, F or U.
    """
    by_source = _label_by_source(evidence)
    if KNOWLEDGE_BASE in by_source:
        return by_source[KNOWLEDGE_BASE], KNOWLEDGE_BASE
    name = by_source.get(NAME_SERVICE)
    image = by_source.get(IMAGE_SERVICE)
    if name is not None and image is not None:
        if name == image:
            return name, AGREEMENT
        return "U", NO_PROVENANCE
    if name is not None:
        return name, NAME_SERVICE
    if image is not None:
        return image, IMAGE_SERVICE
    if MANUAL in by_source:
        return by_source[MANUAL], MANUAL
    return "U", NO_PROVENANCE


def load_evidence_fixture(path) -> dict:
    """Read a JSON-lines evidence fixture.

    Each line holds one lookup result: an object with speaker_id (a JSON
    string), source, label and confidence (a JSON number, not true or
    false).  Returns speaker_id -> list of GenderEvidence; a bad record
    raises ValueError naming `path:line`.
    """
    out: dict[str, list[GenderEvidence]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                speaker, confidence = obj["speaker_id"], obj["confidence"]
                if not isinstance(speaker, str):
                    raise TypeError(f"speaker_id must be a string, got {speaker!r}")
                # a JSON true or false loads as a bool, which is an int
                if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
                    raise TypeError(f"confidence must be a number, got {confidence!r}")
                ev = GenderEvidence(obj["source"], obj["label"], float(confidence))
                out.setdefault(speaker, []).append(ev)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: bad evidence record: {exc}") from exc
    return out


def annotate_speakers(evidence_by_speaker: dict):
    """Resolve every speaker in an evidence map into a SpeakerRecord."""
    records = []
    for speaker_id in sorted(evidence_by_speaker):
        label, provenance = resolve_gender(filter_evidence(evidence_by_speaker[speaker_id]))
        records.append(SpeakerRecord(speaker_id, resolved_gender=label, provenance=provenance))
    return records


SPEAKER_CSV_COLUMNS = ("speaker_id", "gender", "provenance")


def save_speaker_records(records, path) -> None:
    """One CSV row per record; records that repeat a speaker raise
    ValueError before the file is opened."""
    rows = [(r.speaker_id, r.resolved_gender, r.provenance) for r in records]
    repeated = [s for s, n in Counter(row[0] for row in rows).items() if n > 1]
    if repeated:
        raise ValueError(f"{path}: repeated speaker {repeated[0]!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SPEAKER_CSV_COLUMNS)
        writer.writerows(rows)


def load_speaker_records(path):
    """Inverse of save_speaker_records; a bad header or row, or a row
    that repeats a speaker, raises ValueError naming `path:line`."""
    records: dict[str, SpeakerRecord] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader, ()))
        if header != SPEAKER_CSV_COLUMNS:
            raise ValueError(f"{path}:1: bad speaker CSV header {header}")
        for row in reader:
            try:
                speaker_id, gender, provenance = row
                record = SpeakerRecord(speaker_id, gender, provenance)
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: bad speaker row: {exc}") from None
            if speaker_id in records:
                raise ValueError(f"{path}:{reader.line_num}: repeated speaker {speaker_id!r}")
            records[speaker_id] = record
    return list(records.values())
