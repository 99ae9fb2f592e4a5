"""The fault-class and recovery-level tables and the request outcomes in
faultlib are the only places that spell those out. These tests keep string
switches from coming back and tie the tables to their independent ground
truth."""

import ast
import pathlib
import re

from murbsim import faultlib
from murbsim.app import load_app_catalog
from murbsim.faultlib import (FAULT_CLASSES, LEVELS, OUTCOME_CODE, OUTCOMES,
                              RECOVERY_LEVELS)
from murbsim.cli import TABLE2_ROWS
from murbsim.workload import TawLedger

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "murbsim"
NAMES = frozenset(FAULT_CLASSES) | frozenset(RECOVERY_LEVELS)
OP_NAMES = frozenset(load_app_catalog().ops)      # the bundled catalog's
_COMPARISONS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _literals(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return set().union(*(_literals(e) for e in node.elts))
    return set()


def taxonomy_comparisons(source: str, names: frozenset[str] = NAMES) -> list[tuple[int, str]]:
    """(line, names) of each ==, !=, in or not in comparison that has the
    string literal of one of `names`, by default a fault class or level name,
    as an operand."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(op, _COMPARISONS) for op in node.ops):
            hit = names & set().union(*(_literals(x) for x in (node.left, *node.comparators)))
            if hit:
                found.append((node.lineno, ", ".join(sorted(hit))))
    return found


def test_scanner_flags_comparisons_not_arguments():
    source = ('if cls == "deadlock": pass\n'
              'if level in ("murb_group", "other"): pass\n'
              'if "reboot_node" != level: pass\n'
              'world.execute_recovery(0, "restart_process", members, None)\n'
              'first = "murb_group" if mode == "murb" else "restart_process"\n')
    assert taxonomy_comparisons(source) == [
        (1, "deadlock"), (2, "murb_group"), (3, "reboot_node")]


def test_no_class_or_level_string_comparisons_outside_faultlib():
    hits = [f"{path.name}:{line}: {names}"
            for path in sorted(SRC.glob("*.py")) if path.name != "faultlib.py"
            for line, names in taxonomy_comparisons(path.read_text(encoding="utf-8"))]
    assert hits == []


def test_no_op_name_comparisons_outside_app():
    # The simulator reads what an op does from its catalog fields (its session
    # touch, its commit point); a comparison with a bundled op's name would not
    # follow a catalog that gives those fields to another op.
    hits = [f"{path.name}:{line}: {names}"
            for path in sorted(SRC.glob("*.py")) if path.name != "app.py"
            for line, names in taxonomy_comparisons(path.read_text(encoding="utf-8"),
                                                    OP_NAMES)]
    assert hits == []


def op_lookups(source: str) -> list[int]:
    """The line of each subscript of, or `.get` call on, an `ops` attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript) and getattr(node.value, "attr", "") == "ops"
            or isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "get"
            and getattr(node.func.value, "attr", "") == "ops"]


def test_no_op_lookup_by_name_outside_app():
    # An op travels as its OpType from the transition matrix through the
    # client, the request and the failure report to the recovery manager;
    # names are read only where text is parsed or written.
    assert op_lookups('op = catalog.ops[name]\nop = world.catalog.ops.get(name)\n'
                      'x = ledger.ops()\ny = ops[name]\n') == [1, 2]
    hits = [f"{path.name}:{line}"
            for path in sorted(SRC.glob("*.py")) if path.name != "app.py"
            for line in op_lookups(path.read_text(encoding="utf-8"))]
    assert hits == []


def test_control_plane_passes_level_records():
    # A level name is read once, where an event is checked (world.check_event);
    # the world and the recovery manager hand the records themselves to each other.
    hits = [f"{name}:{node.lineno}: {node.value}"
            for name in ("world.py", "recoverymgr.py")
            for node in ast.walk(ast.parse((SRC / name).read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and node.value in RECOVERY_LEVELS]
    assert hits == []
    assert all(LEVELS[lv.rank - 1] is lv for lv in LEVELS if lv.rank is not None)


def allowed_set_names(source: str) -> list[int]:
    """The line of each name, attribute or import of `Literal` or `get_args`."""
    names = {"Literal", "get_args"}
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.ImportFrom) and names & {a.name for a in node.names}]


def test_allowed_sets_are_read_only_in_config():
    # A field's allowed set is one check, config.Section.check: the parser
    # reads text by the field's base type and runs that check, as code does.
    assert allowed_set_names('from typing import Literal, get_args\n'
                             'k = typing.Literal["a"]\nx = get_args(k)\n'
                             'y = typing.get_args(k)\nz = "Literal"\n') == [1, 2, 3, 4]
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            if path.name != "config.py"
            for line in allowed_set_names(path.read_text(encoding="utf-8"))]
    assert hits == []
    assert allowed_set_names((SRC / "config.py").read_text(encoding="utf-8"))


def _calls_by_scope(tree: ast.AST, names: set[str], scope: str = "") -> list[tuple[str, str]]:
    """(enclosing Class.function, method) of each call `x.<name>(...)` for `names`."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            found += _calls_by_scope(node, names, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in names:
            found.append((scope, node.func.attr))
        found += _calls_by_scope(node, names, scope)
    return found


def test_execute_recovery_is_the_only_door():
    # Every recovery op starts in World.execute_recovery, which admits at most
    # one op per node; a direct murb or full_restart call would bypass it.
    calls = {(path.name, scope, name) for path in sorted(SRC.glob("*.py"))
             for scope, name in _calls_by_scope(
                 ast.parse(path.read_text(encoding="utf-8")), {"murb", "full_restart"})}
    assert calls == {("world.py", "World.execute_recovery", "murb"),
                     ("world.py", "World.execute_recovery", "full_restart")}


def test_records_is_the_only_line_walk():
    # Every input file's lines come from runtime.records, which skips blank and
    # comment lines; a second walk would decide again what a line is.
    calls = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope, _ in _calls_by_scope(
                 ast.parse(path.read_text(encoding="utf-8")), {"splitlines"})}
    assert calls == {("runtime.py", "records")}


def test_outcomes_are_spelled_only_in_faultlib():
    # Each request outcome is one faultlib name; a copy of its string
    # elsewhere (a detector key, a ledger check) would drift from it unseen.
    outcomes = set(OUTCOMES) - {""}        # code 0, in flight, is no outcome
    hits = [f"{path.name}:{node.lineno}: {node.value}"
            for path in sorted(SRC.glob("*.py")) if path.name != "faultlib.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and node.value in outcomes]
    assert hits == []


def test_every_outcome_has_one_code():
    constants = [value for name, value in vars(faultlib).items()
                 if name == "OK" or name.startswith("ERR_")]
    assert OUTCOMES[0] == ""
    assert sorted(OUTCOMES[1:]) == sorted(constants)      # each exactly once
    assert len(set(OUTCOMES)) == len(OUTCOMES)
    assert all(OUTCOMES[code] == outcome for outcome, code in OUTCOME_CODE.items())
    assert len(OUTCOMES) <= 1 << 8 * TawLedger(()).outcome_code.itemsize


def test_only_complete_and_a_retry_release_a_worker():
    # World._complete is the one way a request ends; it gives the worker back.
    # The only other release is a sentinel retry, which re-routes the request.
    calls = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
             for scope, _ in _calls_by_scope(
                 ast.parse(path.read_text(encoding="utf-8")), {"_release_worker"})}
    assert calls == {("world.py", "World._complete"), ("world.py", "World._sentinel_hit")}


def test_table2_rows_cover_every_class_and_required_mode():
    rows = {(cls, mode) for _name, cls, mode, *_ in TABLE2_ROWS}
    missing = [name for name in FAULT_CLASSES if name not in {cls for cls, _ in rows}]
    for name, fault_class in FAULT_CLASSES.items():
        if "" not in fault_class.profiles:          # the class requires a mode
            missing += [f"{name}/{mode}" for mode in fault_class.profiles
                        if (name, mode) not in rows]
    assert missing == []


def test_readme_lists_exactly_the_fault_classes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"Fault classes:(.*?)\.\s", readme, re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(FAULT_CLASSES)
