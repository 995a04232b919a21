"""Every public top-level function and class of traitmt has a caller.

A name defined at the top of a module under src/traitmt/ counts as reached
when a Name, Attribute or import alias in src/traitmt/ or perfbench/*.py
refers to it.  References inside the name's own definition (recursion, a
classmethod building its class) do not count, nor do references from
unreached code, so a class only a dead function uses is dead too.  Tests
do not count either: code that only its own tests call should go, and its
tests with it.  ALLOWED lists the few names kept until a caller lands.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "traitmt").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

_PIPELINE = "pipeline artifact, ROADMAP item 3"
ALLOWED = {
    "annotate.save_speaker_records": _PIPELINE,
    "annotate.load_speaker_records": _PIPELINE,
    "stylometry.tag_sentence": _PIPELINE,
    "stylometry.format_tagged_line": _PIPELINE,
    "stylometry.read_tagged_file": _PIPELINE,
    "stylometry.load_function_words": _PIPELINE,
    "stylometry.write_vectors": _PIPELINE,
    "stylometry.read_vectors": _PIPELINE,
    "lm.write_arpa": _PIPELINE,
    "lm.read_arpa": _PIPELINE,
    "decoder.write_weights": _PIPELINE,
    "decoder.read_weights": _PIPELINE,
    "align.read_phrase_table": _PIPELINE,
    "stylometry.machine_translated": "names experiment (a)'s MT variants, ROADMAP item 3",
}


def _referenced(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def _scan():
    """(public definitions as (path, name), referrers by name).

    A referrer is the (file, top-level name) a reference sits in; the
    top-level name is None outside a def or class.
    """
    definitions = []
    referrers = defaultdict(set)
    for path in LIBRARY + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if path in LIBRARY and owner and not owner.startswith("_"):
                definitions.append((path, owner))
            for name in _referenced(stmt):
                referrers[name].add((path, owner))
    return definitions, referrers


def _unreached():
    """Public definitions with no referrer outside themselves and the
    other unreached, non-allowlisted definitions."""
    definitions, referrers = _scan()
    dead = set()
    while True:
        unreached = {
            (path, name)
            for path, name in definitions
            if not referrers[name] - {(path, name)} - dead
        }
        now_dead = {(p, n) for p, n in unreached if f"{p.stem}.{n}" not in ALLOWED}
        if now_dead == dead:
            return {f"{path.stem}.{name}" for path, name in unreached}
        dead = now_dead


def test_every_public_name_is_reached():
    unreached = sorted(_unreached() - set(ALLOWED))
    assert not unreached, (
        f"nothing in src/traitmt/ or perfbench/ reaches {unreached}: "
        "delete them with their tests, or give them a caller"
    )


def test_allowlist_names_only_unreached_definitions():
    stale = sorted(set(ALLOWED) - _unreached())
    assert not stale, f"{stale} are reached or no longer defined: drop them from ALLOWED"
