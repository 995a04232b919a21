"""Every (layer, class, attribute) that perfbench/tracing.py wraps exists
in traitmt.

The tracer skips a TRACED name the library lacks, so a rename would drop a
per-layer counter without a word.  KNOWN_MISSING lists the names already
gone, each with its reason, until perfbench stops tracing them (ROADMAP
item 5).  perfbench/ is only read, never imported.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

_ITEM_5 = "gone from the library; ROADMAP item 5 drops it from TRACED"
KNOWN_MISSING = {
    "align.viterbi_align": _ITEM_5,
    "lm.NgramLanguageModel.unigram_log10": _ITEM_5,
}


def _traced() -> list:
    """TRACED as written in perfbench/tracing.py."""
    for stmt in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "TRACED"
                                                for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError(f"{TRACING} assigns no TRACED list")


def _missing() -> set:
    """The traced names traitmt lacks, as layer[.class].attribute."""
    missing = set()
    for layer, cls, attr, _ in _traced():
        module = importlib.import_module(f"traitmt.{layer}")
        owner = getattr(module, cls, None) if cls else module
        if owner is None or not hasattr(owner, attr):
            missing.add(".".join(filter(None, (layer, cls, attr))))
    return missing


def test_every_traced_name_exists():
    missing = sorted(_missing() - set(KNOWN_MISSING))
    assert not missing, (
        f"perfbench/tracing.py traces {missing}, which traitmt does not define: "
        "its per-layer counters would read 0"
    )


def test_known_missing_names_are_still_missing():
    stale = sorted(set(KNOWN_MISSING) - _missing())
    assert not stale, f"{stale} are defined again or no longer traced: drop them from KNOWN_MISSING"
