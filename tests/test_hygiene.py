"""Source hygiene by static inspection, with the standard library's ``ast``.

Checks over ``src/ofdmpcs``: every import a module makes is used in it;
every module-level private (``_name``) function or class is referenced
somewhere in the package beyond its own definition; every public one, and
every public method of a public class, has a caller in the package or in
``perfbench/``, with no exemption (test-only references live in
``tests/oracles.py``), and no public method shares its name with a member
of another class, where an attribute read could not tell which one it
calls; each name of ``ofdmpcs.__all__`` resolves; every dataclass is
frozen; no public function or dataclass but the Monte-Carlo references
takes both a ``Constellation`` and a ``Distribution``, which carries its
own; every ``derive_seed`` purpose has one call site; only
``cli.py`` opens a file; no module references ``linalg`` or sets a warning
filter; no result dataclass (``ShapingResult``, ``PdCurve``,
``MIEstimate``, ``AFMoments``) has a field named like a parameter of a
function annotated to return it; detection makes its generators only where
calibration and P_d open their streams; neither shaper, nor the rate quadrature function by
function, references a random generator or a seed; and the dB limit is one
literal, ``constellation.MAX_ABS_DB``.  A deleted code path leaves no orphaned helper,
dangling import or uncalled public function behind, no two code paths share
a random stream by accident, artifacts have one writer, the shapers'
closed-form solves stay off LAPACK, and a shaped input and its rate are
functions of the config alone, and a result holds what was computed,
never a copy of its caller's input that could disagree with it.
"""
from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import ofdmpcs

SRC = Path(ofdmpcs.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
BENCH = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def referenced_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree``, as bare names or attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = parse(path)
    used = referenced_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert not unused, f"{path.name} imports unused {unused}"


def test_private_helpers_are_referenced():
    trees = {path.name: parse(path) for path in MODULES}
    used = set().union(*(referenced_names(t) for t in trees.values()))
    orphans = [
        f"{name}:{node.name}"
        for name, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert not orphans, f"private definitions nothing references: {orphans}"


def attribute_names(tree: ast.AST) -> set[str]:
    """Names loaded anywhere in ``tree`` as attributes (``obj.name``)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def class_members(cls: ast.ClassDef) -> set[str]:
    """The fields, methods and properties ``cls`` defines in its body."""
    return {node.name if isinstance(node, ast.FunctionDef) else node.target.id
            for node in cls.body
            if isinstance(node, ast.FunctionDef)
            or (isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name))}


def test_public_definitions_have_a_caller():
    # a use inside the definition itself (recursion, say) is not a caller;
    # the benchmark names the functions it traces in strings
    named = set()
    for path in BENCH:
        tree = parse(path)
        named |= referenced_names(tree) | {
            node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    tops = [(path.name, node, referenced_names(node))
            for path in MODULES for node in parse(path).body]
    uncalled = [
        f"{name}:{node.name}" for name, node, _ in tops
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
        and not any(node.name in refs for _, other, refs in tops
                    if other is not node)
    ]
    # a public method of a public class is called through an attribute,
    # from the package or the benchmark
    attributes = set().union(*(attribute_names(parse(path))
                               for path in MODULES + BENCH))
    uncalled += [
        f"{name}:{cls.name}.{node.name}" for name, cls, _ in tops
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_") and node.name not in attributes
    ]
    assert not uncalled, f"public definitions no command runs: {uncalled}"
    # ... but an attribute read credits every class with a member of that
    # name, so a public method must have a name no other class uses
    members = {cls.name: class_members(cls) for _, cls, _ in tops
               if isinstance(cls, ast.ClassDef)}
    shared = [
        f"{name}:{cls.name}.{node.name}" for name, cls, _ in tops
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        and any(node.name in names for other, names in members.items()
                if other != cls.name)
    ]
    assert not shared, ("public methods named like a member of another "
                        f"class: {shared}")


def test_one_statement_of_the_db_limit():
    # every dB bound, and the noise powers 10 ** (+-dB / 10) it implies, is
    # derived from constellation.MAX_ABS_DB; a second literal could drift
    found = []
    for path in MODULES:
        lines = path.read_text().splitlines()
        found += [(path.name, lines[node.lineno - 1])
                  for node in ast.walk(parse(path))
                  if isinstance(node, ast.Constant)
                  and type(node.value) in (int, float)
                  and node.value in (3000, 1e300, 1e-300)]
    assert found == [("constellation.py", "MAX_ABS_DB = 3000.0")], found


def test_all_entries_resolve():
    missing = [name for name in ofdmpcs.__all__
               if not hasattr(ofdmpcs, name)]
    assert not missing, missing
    assert len(set(ofdmpcs.__all__)) == len(ofdmpcs.__all__)


def purpose_literal(node: ast.expr) -> str | None:
    """A ``derive_seed`` purpose as written: a string, or an f-string with
    ``{}`` for each field; ``None`` for any other expression."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return None


def test_each_seed_purpose_has_one_call_site():
    # two call sites with one purpose draw the same stream; they agree only
    # as long as every other input of both draws does
    sites = defaultdict(list)
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if not (isinstance(node, ast.Call) and len(node.args) == 2):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name != "derive_seed":
                continue
            purpose = purpose_literal(node.args[1])
            assert purpose is not None, f"{path.name}:{node.lineno}"
            sites[purpose].append(f"{path.name}:{node.lineno}")
    assert sites, "no derive_seed call found"
    shared = {p: s for p, s in sites.items() if len(s) > 1}
    assert not shared, f"purposes with more than one call site: {shared}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_opens_files(path):
    # every artifact goes through the CLI's one writer
    if path.name == "cli.py":
        return
    opens = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and (getattr(node.func, "id", None) == "open"
                  or getattr(node.func, "attr", None) == "open")]
    assert not opens, f"{path.name} calls open at lines {opens}"


def is_frozen_dataclass(decorator: ast.expr) -> bool | None:
    """``None`` unless ``decorator`` is ``dataclass``, bare or called; else
    whether it passes ``frozen=True``."""
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    if "dataclass" not in (getattr(func, "id", None),
                           getattr(func, "attr", None)):
        return None
    return any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
               and kw.value.value is True
               for kw in getattr(decorator, "keywords", ()))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_dataclasses_are_frozen(path):
    # a solved input, a scenario or a config is built once and then only
    # read: a mutable one invites a slot some caller fills in afterwards
    mutable = [node.name for node in ast.walk(parse(path))
               if isinstance(node, ast.ClassDef)
               and any(is_frozen_dataclass(d) is False
                       for d in node.decorator_list)]
    assert not mutable, f"{path.name}: mutable dataclasses {mutable}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_linalg(path):
    # the moment matcher's 2 x 2 Newton step and 3-ring vertex are closed
    # forms: a LAPACK call there touches ~1 MB of library pages per process
    assert "linalg" not in path.read_text(), f"{path.name} references linalg"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_warning_filters(path):
    # a filter set by the package outlives the call that sets it and sits
    # ahead of the suite's error::RuntimeWarning, so a numpy warning in
    # every later test would print instead of failing
    calls = [node.lineno for node in ast.walk(parse(path))
             if isinstance(node, ast.Call)
             and {getattr(node.func, "id", None),
                  getattr(node.func, "attr", None)}
             & {"filterwarnings", "simplefilter"}]
    assert not calls, f"{path.name} sets a warning filter at lines {calls}"


def annotation_names(expr: ast.expr | None) -> set[str]:
    """The names an annotation mentions, bare, dotted or quoted."""
    if expr is None:
        return set()
    return referenced_names(expr) | {
        node.value for node in ast.walk(expr)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def parameter_names(func: ast.FunctionDef) -> set[str]:
    args = func.args
    return {arg.arg for arg in (*args.posonlyargs, *args.args,
                                *args.kwonlyargs, args.vararg, args.kwarg)
            if arg is not None}


@pytest.mark.parametrize("result", ["ShapingResult", "PdCurve", "MIEstimate",
                                    "AFMoments"])
def test_results_store_no_argument_of_their_producer(result):
    # a result keeps what its producer computed; the producer's arguments
    # stay with the caller, where a stored copy cannot disagree with the
    # result (ShapingResult.c0 held the c0 asked for, not the snapped c0
    # its masses meet)
    fields, producers = set(), {}
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ClassDef) and node.name == result:
                fields = {sub.target.id for sub in node.body
                          if isinstance(sub, ast.AnnAssign)
                          and isinstance(sub.target, ast.Name)}
            elif (isinstance(node, ast.FunctionDef)
                  and result in annotation_names(node.returns)):
                producers[f"{path.name}:{node.name}"] = parameter_names(node)
    assert fields and producers, f"{result}: no fields or no producer found"
    shared = {name: sorted(params & fields)
              for name, params in producers.items() if params & fields}
    assert not shared, f"{result} fields copy producer arguments: {shared}"


# the Monte-Carlo references keep their (c, d) pair: the benchmark's tracer
# reads their arguments by name, and its reference capture calls them so
MC_REFERENCES = {"average_af", "gm_log_pdf", "awgn_outputs",
                 "mutual_information"}


def test_an_input_carries_its_constellation():
    # a Distribution holds the constellation it was built on; a signature
    # that takes a second one can pair the input with a constellation of
    # the same sizes it was not built on, and score it without a word
    paired = []
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                annotations = [arg.annotation for arg in (
                    *args.posonlyargs, *args.args, *args.kwonlyargs)]
            elif (isinstance(node, ast.ClassDef)
                  and any(is_frozen_dataclass(d) is not None
                          for d in node.decorator_list)):
                annotations = [sub.annotation for sub in node.body
                               if isinstance(sub, ast.AnnAssign)]
            else:
                continue
            names = set().union(*map(annotation_names, annotations))
            if ({"Constellation", "Distribution"} <= names
                    and not node.name.startswith("_")
                    and node.name not in MC_REFERENCES):
                paired.append(f"{path.name}:{node.name}")
    assert not paired, f"take a constellation and an input: {paired}"


def test_detection_opens_one_stream_per_purpose():
    # calibration reads one stream and each P_d point one stream, block by
    # block; a generator made anywhere else (one per trial) is a second
    # draw discipline
    owners = set()
    for node in parse(SRC / "detection.py").body:
        for sub in ast.walk(node):
            if "default_rng" in (getattr(sub, "id", None),
                                 getattr(sub, "attr", None),
                                 getattr(sub, "name", None)):
                owners.add(getattr(node, "name", f"line {node.lineno}"))
    assert owners == {"calibrate_so_cfar", "detection_probability"}, owners


def function_closure(tree: ast.Module, name: str) -> list[ast.AST]:
    """The module-level definition ``name`` of ``tree`` and every one it
    reaches by reference, transitively."""
    defs = {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached, todo = {}, [name]
    while todo:
        node = defs[todo.pop()]
        if node.name not in reached:
            reached[node.name] = node
            todo += sorted(referenced_names(node) & defs.keys())
    return list(reached.values())


@pytest.mark.parametrize("name", [
    "shaping.py", "shaping_ba.py",
    *(f"rates.py::{func}" for func in ("rate_bits", "rate_curve", "_lattice",
                                       "_ring_rates", "_orbit_rate"))])
def test_shapers_stay_deterministic(name):
    # both solvers and the rate quadrature are deterministic computations:
    # no generator, no numpy random module, no seed derivation, imported or
    # referenced.  rates.py still holds the Monte-Carlo reference, so its
    # quadrature is checked function by function, with every module-level
    # definition each one reaches
    path, _, func = name.partition("::")
    tree = parse(SRC / path)
    nodes = function_closure(tree, func) if func else [tree]
    names = set().union(*(referenced_names(node) for node in nodes)) | {
        alias.asname or alias.name for node in nodes for sub in ast.walk(node)
        if isinstance(sub, (ast.Import, ast.ImportFrom))
        for alias in sub.names}
    names |= {sub.module.rsplit(".", 1)[-1] for node in nodes
              for sub in ast.walk(node)
              if isinstance(sub, ast.ImportFrom) and sub.module}
    banned = {"default_rng", "random", "derive_seed", "trial_seed", "seeds"}
    assert not names & banned, f"{name} references {sorted(names & banned)}"
