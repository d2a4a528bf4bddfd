"""The repository's tools: the mutation list is not stale, every test id
the tools name is a test that exists, and the reach report's statement
finder keeps its rules and its reasons name statements that still
exist."""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutate = _load("mutate")
reach = _load("reach")


class TestMutationList:
    def test_every_text_occurs_exactly_once_in_the_package(self):
        entries = [*mutate.MUTATIONS, *(mutation for mutation, _ in mutate.EQUIVALENT)]
        modules, stale = mutate.locate(entries)
        assert stale == []
        assert list(modules) == entries

    def test_text_names_its_module(self):
        entry = mutate.Mutation("one home", "def up_steps_per_level(", "", ())
        assert mutate.locate([entry]) == ({entry: "frames.py"}, [])

    def test_absent_or_repeated_text_is_stale(self):
        absent = mutate.Mutation("absent", "this text is in no module", "", ())
        repeated = mutate.Mutation("repeated", 'require_size("n", n)', "", ())
        assert mutate.locate([absent, repeated]) == ({}, ["absent", "repeated"])


def _defined(path: Path) -> set[tuple[str, ...]]:
    """Every module-level class and function of a test file, and every
    method of its classes as ("TestX", "test_y"), read from its ast."""
    found: set[tuple[str, ...]] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            found.add((node.name,))
        if isinstance(node, ast.ClassDef):
            found.update((node.name, f.name) for f in node.body if isinstance(f, ast.FunctionDef))
    return found


def _names_a_test(node_id: str) -> bool:
    file, *names = node_id.split("::")
    path = ROOT / file
    return path.is_file() and (not names or tuple(names) in _defined(path))


class TestNodeIds:
    # pytest ignores a --deselect that names no test without a word, so a
    # renamed stream test would be traced for minutes; a stale mutation id
    # shows only as the unmutated copy failing its tests.
    def test_every_id_the_tools_name_is_a_test(self):
        ids = [test for mutation in mutate.MUTATIONS for test in mutation.tests]
        ids += [*reach.DESELECT, *reach.UNTRACED]
        assert ids
        assert [node_id for node_id in ids if not _names_a_test(node_id)] == []

    def test_stale_ids_are_found(self):
        assert _names_a_test("tests/test_tools.py::TestNodeIds::test_stale_ids_are_found")
        assert _names_a_test("tests/test_tools.py::TestNodeIds")
        assert _names_a_test("tests/test_tools.py")
        for stale in (
            "tests/test_tools.py::TestNodeIds::test_gone",
            "tests/test_tools.py::test_stale_ids_are_found",  # a method is not module level
            "tests/test_gone.py::test_x",
            "tests/test_gone.py",
        ):
            assert not _names_a_test(stale), stale


SOURCE = '''\
import os


class Frame:
    @staticmethod
    @property
    def parse(text):
        total: int
        global os
        if text:
            return [
                1,
            ]
        return 2
'''


class TestReachStatements:
    def test_statements_and_their_scopes(self):
        assert reach._statements(SOURCE, "demo.py") == [
            (1, "", range(1, 2)),
            (4, "", range(4, 5)),  # a compound statement is its header only
            (7, "Frame", range(5, 8)),  # a decorated def starts at its first decorator
            # the bare annotation and the global have no bytecode, so are skipped
            (10, "Frame.parse", range(10, 11)),
            (11, "Frame.parse", range(11, 14)),
            (14, "Frame.parse", range(14, 15)),
        ]

    def test_every_reason_still_names_its_statements(self):
        found = Counter(
            key
            for path in sorted(reach.PACKAGE.glob("*.py"))
            for _, key, _ in reach.keyed_statements(path)
        )
        for key, (expected, _) in reach.REASONS.items():
            assert found[key] >= expected, key
