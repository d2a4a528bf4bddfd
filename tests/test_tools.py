"""The repository's tools: the mutation list is not stale, and the reach
report's statement finder keeps its rules and its reasons name statements
that still exist."""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
