"""Every public top-level function and class of traitmt has a caller, and
so does every option of one and every public member of a public class.

A name defined at the top of a module under src/traitmt/ counts as reached
when a Name, Attribute or import alias in src/traitmt/ or perfbench/*.py
refers to it.  References inside the name's own definition (recursion, a
classmethod building its class) do not count, nor do references from
unreached code, so a class only a dead function uses is dead too.  Tests
do not count either: code that only its own tests call should go, and its
tests with it.  ALLOWED lists the few names kept until a caller lands.

An option is a defaulted parameter of a public function or method (of
`__init__`, for a class).  It counts as set when some call in src/traitmt/
or perfbench/*.py to a function of that name passes it, by position or by
keyword; what a call passes through `*args` or `**kwargs` does not count,
since the scan cannot see it.  An option no such call sets should be a
constant.  OPTIONS_ALLOWED lists the few kept, each with its reason.

A member is a public method, property or cached_property of a public
class.  It counts as read when an Attribute of its name appears in
src/traitmt/ or perfbench/*.py outside its own def.  The scan matches on
the name alone, so a member that shares its name with another attribute
(a dataclass field, another class's method) passes unread.
MEMBERS_ALLOWED lists the members kept without a reader, each with its
reason.
"""

import ast
import functools
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "traitmt").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


@functools.cache
def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


_PIPELINE = "pipeline artifact, ROADMAP item 3"
ALLOWED = {
    "annotate.save_speaker_records": _PIPELINE,
    "annotate.load_speaker_records": _PIPELINE,
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

_TOY = "tests run it at toy sizes"
_ORACLE = "the SMO tests sweep it against the exact QP"
OPTIONS_ALLOWED = {
    "align.build_phrase_table(iterations)": _TOY,
    "align.build_phrase_table(max_len)": _TOY,
    "stylometry.chunk_corpus(target)": _TOY,
    "stylometry.chunk_corpus(min_fraction)": _TOY,
    "stylometry.build_feature_space(k)": _TOY,
    "classify.train_svm(C)": _ORACLE,
    "classify.train_svm(tol)": _ORACLE,
    "classify.train_svm(max_iter)": _ORACLE,
    "align.ibm1_em(use_null)": "the textbook EM walk-through runs without the NULL word",
    "lm.train_kn_lm(unk_threshold)": "the gender-LM vocabulary rework, ROADMAP item 1",
    "decoder.decode(stack_size)": "the beam tests sweep it against the exhaustive search",
    "decoder.decode(nbest_size)": "perfbench's tune passes it as **kwargs; its hook reads it",
}

MEMBERS_ALLOWED: dict[str, str] = {}


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
        tree = _tree(path)
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


def _public_defs(tree):
    """(qualified name, callee name, def, takes self) for each public
    function and public method of a public class; a class's `__init__` is
    called by the class name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt.name, stmt.name, stmt, False
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for fn in stmt.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if fn.name == "__init__":
                    yield stmt.name, stmt.name, fn, True
                elif not fn.name.startswith("_"):
                    yield f"{stmt.name}.{fn.name}", fn.name, fn, not static


def _options():
    """Options as (key, callee name, position or None, parameter name)."""
    options = []
    for path in LIBRARY:
        tree = _tree(path)
        for qualname, callee, fn, takes_self in _public_defs(tree):
            key = f"{path.stem}.{qualname}"
            params = (fn.args.posonlyargs + fn.args.args)[takes_self:]
            first = len(params) - len(fn.args.defaults)
            options += [(f"{key}({p.arg})", callee, k, p.arg)
                        for k, p in enumerate(params) if k >= first]
            options += [(f"{key}({p.arg})", callee, None, p.arg)
                        for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                        if default is not None]
    return options


def _unset_options() -> set:
    """Keys of the options no call in src/traitmt/ or perfbench/ passes."""
    passed = defaultdict(set)   # callee name -> positions and keywords passed
    for path in LIBRARY + BENCH:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed[callee].update(
                    k for k, a in enumerate(node.args) if not isinstance(a, ast.Starred))
                passed[callee].update(k.arg for k in node.keywords if k.arg)
    return {
        key for key, callee, position, name in _options()
        if not {position, name} & passed[callee]
    }


def test_every_option_has_a_caller():
    unset = sorted(_unset_options() - set(OPTIONS_ALLOWED))
    assert not unset, (
        f"no call in src/traitmt/ or perfbench/ sets {unset}: "
        "make them constants, or pass them where a caller needs another value"
    )


def test_options_allowlist_names_only_unset_options():
    stale = sorted(set(OPTIONS_ALLOWED) - _unset_options())
    assert not stale, f"{stale} are set by a caller or no longer exist: drop them from OPTIONS_ALLOWED"


def _attributes(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def _unread_members() -> set:
    """Public members of public classes named by no Attribute outside
    their own def."""
    everywhere = sum((_attributes(_tree(path)) for path in LIBRARY + BENCH), Counter())
    return {
        f"{path.stem}.{qualname}"
        for path in LIBRARY
        for qualname, name, fn, _ in _public_defs(_tree(path))
        if "." in qualname and everywhere[name] == _attributes(fn)[name]
    }


def test_every_public_member_is_read():
    unread = sorted(_unread_members() - set(MEMBERS_ALLOWED))
    assert not unread, (
        f"nothing in src/traitmt/ or perfbench/ reads {unread}: "
        "delete them with their tests, or give them a reader"
    )


def test_members_allowlist_names_only_unread_members():
    stale = sorted(set(MEMBERS_ALLOWED) - _unread_members())
    assert not stale, f"{stale} are read or no longer defined: drop them from MEMBERS_ALLOWED"
