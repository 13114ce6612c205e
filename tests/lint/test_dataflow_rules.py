"""Seeded-bug suites for the cross-module dataflow rules.

Each suite plants several *distinct* violations of one rule in a
self-contained fixture module (stand-in classes named ``FlashState`` /
``MappingTable`` -- the domain tables key on class names, not import
paths) and asserts the rule reports exactly the planted lines.  Clean
twins prove the rules stay quiet on the idiomatic equivalents.
"""

from __future__ import annotations

import pytest

from repro.lint.cli import lint_paths


def lint_fixture(tmp_path, source: str, rule_id: str, name: str = "fixture.py"):
    path = tmp_path / name
    path.write_text(source)
    violations, _, suppressed, errors = lint_paths(
        [str(path)], select=[rule_id], respect_scoping=False
    )
    assert errors == []
    return violations, suppressed


def planted_lines(source: str) -> list[int]:
    return [
        lineno
        for lineno, text in enumerate(source.splitlines(), start=1)
        if "# BUG" in text
    ]


# ---------------------------------------------------------------------------
# SIM010 address-domain-confusion
# ---------------------------------------------------------------------------

SIM010_SEEDED = '''\
from typing import Optional, TypeAlias

Lpn: TypeAlias = int
Ppn: TypeAlias = int
Pbn: TypeAlias = int


class MappingTable:
    def get_ppn(self, lpn: Lpn) -> Optional[Ppn]:
        return None

    def set(self, lpn: Lpn, ppn: Ppn) -> None:
        pass


class FlashState:
    def __init__(self) -> None:
        self.erase_count = [0]
        self.page_lpn = [0]


class Ftl:
    def __init__(self) -> None:
        self.table = MappingTable()
        self.state = FlashState()

    def double_lookup(self, lpn: Lpn):
        ppn = self.table.get_ppn(lpn)
        return self.table.get_ppn(ppn)  # BUG: PPN fed back as an LPN

    def wear_of(self, ppn: Ppn) -> int:
        return self.state.erase_count[ppn]  # BUG: per-block array, PPN index

    def misannotate(self, lpn: Lpn) -> None:
        ppn: Ppn = lpn  # BUG: LPN bound to a Ppn annotation

    def reverse(self, ppn: Ppn) -> Lpn:
        return ppn  # BUG: PPN returned from an -> Lpn function
'''

SIM010_CLEAN = '''\
from typing import Optional, TypeAlias

Lpn: TypeAlias = int
Ppn: TypeAlias = int
Pbn: TypeAlias = int


class MappingTable:
    def get_ppn(self, lpn: Lpn) -> Optional[Ppn]:
        return None

    def set(self, lpn: Lpn, ppn: Ppn) -> None:
        pass


class FlashState:
    def __init__(self) -> None:
        self.erase_count = [0]
        self.page_lpn = [0]


class Ftl:
    def __init__(self) -> None:
        self.table = MappingTable()
        self.state = FlashState()

    def remap(self, lpn: Lpn, ppn: Ppn) -> None:
        self.table.set(lpn, ppn)

    def lookup(self, lpn: Lpn) -> Optional[Ppn]:
        return self.table.get_ppn(lpn)

    def block_of(self, ppn: Ppn, pages_per_block: int) -> Pbn:
        # Division is a legitimate address-space conversion: it kills
        # the operand's domain instead of propagating it.
        return ppn // pages_per_block

    def neighbour(self, ppn: Ppn) -> Ppn:
        return ppn + 1

    def owner(self, ppn: Ppn) -> Lpn:
        return self.state.page_lpn[ppn]
'''


def test_sim010_catches_planted_domain_bugs(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM010_SEEDED, "SIM010")
    assert [v.rule_id for v in violations] == ["SIM010"] * 4
    assert [v.line for v in violations] == planted_lines(SIM010_SEEDED)
    assert len(planted_lines(SIM010_SEEDED)) >= 3


def test_sim010_messages_name_both_domains(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM010_SEEDED, "SIM010")
    for violation in violations:
        assert "Ppn" in violation.message or "PPN" in violation.message


def test_sim010_clean_on_correct_domains(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM010_CLEAN, "SIM010")
    assert violations == []


def test_sim010_tracks_across_modules(tmp_path):
    (tmp_path / "addr.py").write_text(
        "from typing import TypeAlias\n"
        "Lpn: TypeAlias = int\n"
        "Ppn: TypeAlias = int\n"
        "def translate(lpn: Lpn) -> Ppn:\n"
        "    return lpn * 2\n"
    )
    (tmp_path / "user.py").write_text(
        "from typing import TypeAlias\n"
        "from addr import translate\n"
        "Lpn: TypeAlias = int\n"
        "def relay(lpn: Lpn):\n"
        "    ppn = translate(lpn)\n"
        "    return translate(ppn)\n"  # planted: PPN into the Lpn param
    )
    violations, _, _, errors = lint_paths(
        [str(tmp_path)], select=["SIM010"], respect_scoping=False
    )
    assert errors == []
    assert [(v.path.rsplit("/", 1)[-1], v.line) for v in violations] == [
        ("user.py", 6)
    ]


def test_sim010_suppressible_inline(tmp_path):
    source = SIM010_SEEDED.replace(
        "return self.table.get_ppn(ppn)  # BUG: PPN fed back as an LPN",
        "return self.table.get_ppn(ppn)  # simlint: disable=SIM010 -- test",
    )
    violations, suppressed = lint_fixture(tmp_path, source, "SIM010")
    assert suppressed == 1
    assert len(violations) == 3


# ---------------------------------------------------------------------------
# SIM012 leaked-array-view
# ---------------------------------------------------------------------------

SIM012_SEEDED = '''\
import numpy as np


class FlashState:
    def __init__(self) -> None:
        self.valid = np.zeros(8, dtype=np.int64)
        self.live_count = np.zeros(8, dtype=np.int64)

    def block_words(self, array):
        return array

    def set_page_bit(self, array, block_id):
        array[block_id] |= 1


def poke(state: FlashState):
    state.valid[3] = 1  # BUG: direct write around the mutator API


def carve(state: FlashState):
    window = state.live_count[2:5]
    window[0] = 7  # BUG: write through a live slice view


def wipe(state: FlashState):
    words = state.block_words(state.valid)
    words.fill(0)  # BUG: in-place method on a state-owned view
'''

SIM012_CLEAN = '''\
import numpy as np


class FlashState:
    def __init__(self) -> None:
        self.valid = np.zeros(8, dtype=np.int64)
        self.live_count = np.zeros(8, dtype=np.int64)

    def block_words(self, array):
        return array

    def set_page_bit(self, block_id):
        self.valid[block_id] |= 1


def snapshot(state: FlashState):
    copied = state.live_count.copy()
    copied[0] = 7
    return copied


def scratch(state: FlashState):
    words = state.block_words(np.zeros(8, dtype=np.int64))
    words[0] = 1
    return words


def through_api(state: FlashState):
    state.set_page_bit(3)


def read_only(state: FlashState):
    return int(state.live_count[2])
'''


def test_sim012_catches_planted_view_mutations(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM012_SEEDED, "SIM012")
    assert [v.rule_id for v in violations] == ["SIM012"] * 3
    assert [v.line for v in violations] == planted_lines(SIM012_SEEDED)
    assert len(planted_lines(SIM012_SEEDED)) >= 3


def test_sim012_messages_point_at_mutator_api(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM012_SEEDED, "SIM012")
    for violation in violations:
        assert "mutator" in violation.message


def test_sim012_clean_on_copies_and_mutator_api(tmp_path):
    violations, _ = lint_fixture(tmp_path, SIM012_CLEAN, "SIM012")
    assert violations == []


# ---------------------------------------------------------------------------
# engine internals exercised through the fixtures
# ---------------------------------------------------------------------------

def test_project_rules_inert_per_file():
    from repro.lint.framework import LintContext
    from repro.lint.rules import rule_by_id

    rule = rule_by_id("SIM010")
    context = LintContext("fixture.py", SIM010_SEEDED)
    assert list(rule.check(context)) == []
