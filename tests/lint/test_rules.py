"""Fixture tests for every simlint rule: one clean and one offending
snippet per rule, plus suppression semantics."""

from __future__ import annotations

import pytest

from repro.lint.framework import LintContext, run_rules
from repro.lint.rules import ALL_RULES, rule_by_id


def lint_snippet(source: str, rule_id: str, path: str = "snippet.py"):
    """Run one rule over a source string; returns (violations, suppressed)."""
    context = LintContext(path, source)
    return run_rules(context, [rule_by_id(rule_id)])


def ids_of(violations):
    return [v.rule_id for v in violations]


# ---------------------------------------------------------------------------
# SIM001 no-stdlib-random
# ---------------------------------------------------------------------------

def test_sim001_flags_import_random():
    violations, _ = lint_snippet("import random\n", "SIM001")
    assert ids_of(violations) == ["SIM001"]
    assert violations[0].line == 1


def test_sim001_flags_from_import():
    violations, _ = lint_snippet("from random import shuffle\n", "SIM001")
    assert ids_of(violations) == ["SIM001"]


def test_sim001_clean_on_stream_registry():
    violations, _ = lint_snippet(
        "from repro.core.rng import RandomSource\n"
        "stream = RandomSource(7).stream('gc')\n",
        "SIM001",
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM002 no-wallclock
# ---------------------------------------------------------------------------

def test_sim002_flags_wallclock_calls():
    violations, _ = lint_snippet(
        "import time\nstart = time.monotonic()\n", "SIM002"
    )
    assert ids_of(violations) == ["SIM002"]
    assert "sim.now" in violations[0].message


def test_sim002_flags_bare_import_and_call():
    violations, _ = lint_snippet(
        "from time import perf_counter\nt = perf_counter()\n", "SIM002"
    )
    # Both the import and the call are reported.
    assert ids_of(violations) == ["SIM002", "SIM002"]


def test_sim002_flags_datetime_now():
    violations, _ = lint_snippet(
        "import datetime\nstamp = datetime.datetime.now()\n", "SIM002"
    )
    assert ids_of(violations) == ["SIM002"]


def test_sim002_clean_on_virtual_time():
    violations, _ = lint_snippet("def probe(sim):\n    return sim.now\n", "SIM002")
    assert violations == []


# ---------------------------------------------------------------------------
# SIM003 ordered-iteration
# ---------------------------------------------------------------------------

def test_sim003_flags_set_literal_loop():
    violations, _ = lint_snippet(
        "for x in {3, 1, 2}:\n    print(x)\n", "SIM003"
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_flags_annotated_set():
    violations, _ = lint_snippet(
        "def drain(pending: set):\n"
        "    for item in pending:\n"
        "        item.fire()\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_flags_inferred_set_attribute():
    violations, _ = lint_snippet(
        "class Gc:\n"
        "    def __init__(self):\n"
        "        self.victims = set()\n"
        "    def collect(self):\n"
        "        for v in self.victims:\n"
        "            v.erase()\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_flags_dict_view_loop():
    violations, _ = lint_snippet(
        "def pump(queues: dict):\n"
        "    for q in queues.values():\n"
        "        q.pop()\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_clean_when_sorted():
    violations, _ = lint_snippet(
        "def drain(pending: set):\n"
        "    for item in sorted(pending):\n"
        "        item.fire()\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_clean_when_sorted_behind_enumerate():
    violations, _ = lint_snippet(
        "def drain(pending: set):\n"
        "    for i, item in enumerate(sorted(pending)):\n"
        "        item.fire(i)\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_clean_in_order_insensitive_reducer():
    violations, _ = lint_snippet(
        "def total(queues: dict):\n"
        "    return sum(len(q) for q in queues.values())\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_flags_list_materializing_dict_keys():
    violations, _ = lint_snippet(
        "def snapshot(queues: dict):\n"
        "    return list(queues.keys())\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]
    assert "materializes" in violations[0].message


def test_sim003_flags_tuple_materializing_dict_values():
    violations, _ = lint_snippet(
        "def freeze(queues: dict):\n"
        "    return tuple(queues.values())\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_flags_list_of_bare_set():
    violations, _ = lint_snippet(
        "def order(pending: set):\n"
        "    return list(pending)\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_clean_when_materializing_sorted():
    violations, _ = lint_snippet(
        "def snapshot(queues: dict):\n"
        "    return list(sorted(queues.keys()))\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_clean_when_materialized_result_is_sorted():
    violations, _ = lint_snippet(
        "def snapshot(queues: dict):\n"
        "    return sorted(list(queues.keys()))\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_clean_when_materializing_a_list():
    violations, _ = lint_snippet(
        "def copy_of(history: list):\n"
        "    return list(history)\n",
        "SIM003",
    )
    assert violations == []


def test_sim003_materializer_not_double_reported_in_loop():
    # `for x in list(pending)` is already flagged as an ordered loop over
    # a set; the materializer branch must not add a second finding.
    violations, _ = lint_snippet(
        "def drain(pending: set):\n"
        "    for item in list(pending):\n"
        "        item.fire()\n",
        "SIM003",
    )
    assert ids_of(violations) == ["SIM003"]


def test_sim003_clean_for_set_comprehension_result():
    # A set comprehension's own result cannot leak iteration order.
    violations, _ = lint_snippet(
        "def open_ids(registry: dict):\n"
        "    return {b for (k, _), b in registry.items()}\n",
        "SIM003",
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM004 no-unpicklable-runspec
# ---------------------------------------------------------------------------

def test_sim004_flags_lambda_workload():
    violations, _ = lint_snippet(
        "spec = RunSpec(seed=1, workload=lambda: build())\n", "SIM004"
    )
    assert ids_of(violations) == ["SIM004"]


def test_sim004_flags_lambda_setter_in_parameter():
    violations, _ = lint_snippet(
        "p = Parameter('depth', [1, 2], lambda c, v: c)\n", "SIM004"
    )
    assert ids_of(violations) == ["SIM004"]


def test_sim004_clean_with_module_function():
    violations, _ = lint_snippet(
        "def build():\n    return 1\n"
        "spec = RunSpec(seed=1, workload=build)\n",
        "SIM004",
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM006 no-mutable-module-state
# ---------------------------------------------------------------------------

def test_sim006_flags_module_level_containers():
    violations, _ = lint_snippet(
        "_CACHE = {}\n_SEEN = set()\n_ORDER = [1, 2]\n", "SIM006"
    )
    assert ids_of(violations) == ["SIM006", "SIM006", "SIM006"]


def test_sim006_flags_itertools_count():
    violations, _ = lint_snippet(
        "import itertools\n_ids = itertools.count(1)\n", "SIM006"
    )
    assert ids_of(violations) == ["SIM006"]


def test_sim006_clean_on_immutable_and_dunder():
    violations, _ = lint_snippet(
        "from types import MappingProxyType\n"
        "__all__ = ['a']\n"
        "_ORDER = (1, 2)\n"
        "_NAMES = frozenset({'a'})\n"
        "_TABLE = MappingProxyType({'a': 1})\n",
        "SIM006",
    )
    assert violations == []


def test_sim006_ignores_function_locals():
    violations, _ = lint_snippet(
        "def build():\n    cache = {}\n    return cache\n", "SIM006"
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM007 no-float-time-literal
# ---------------------------------------------------------------------------

def test_sim007_flags_float_delay():
    violations, _ = lint_snippet("sim.post(1.5, tick)\n", "SIM007")
    assert ids_of(violations) == ["SIM007"]


def test_sim007_clean_on_int_and_units():
    violations, _ = lint_snippet(
        "sim.post(1500, tick)\n"
        "sim.post(units.microseconds(2), tick)\n",
        "SIM007",
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM008 no-environ-in-sim
# ---------------------------------------------------------------------------

def test_sim008_flags_environ_and_getenv():
    violations, _ = lint_snippet(
        "import os\n"
        "depth = os.environ['DEPTH']\n"
        "seed = os.getenv('SEED')\n",
        "SIM008",
    )
    assert ids_of(violations) == ["SIM008", "SIM008"]


def test_sim008_clean_on_config():
    violations, _ = lint_snippet(
        "def depth_of(config):\n    return config.host.queue_depth\n", "SIM008"
    )
    assert violations == []


# ---------------------------------------------------------------------------
# SIM009 no-id-ordering
# ---------------------------------------------------------------------------

def test_sim009_flags_key_id():
    violations, _ = lint_snippet("order = sorted(cmds, key=id)\n", "SIM009")
    assert ids_of(violations) == ["SIM009"]


def test_sim009_flags_id_inside_key_lambda():
    violations, _ = lint_snippet(
        "winner = min(cmds, key=lambda c: (c.deadline, id(c)))\n", "SIM009"
    )
    assert ids_of(violations) == ["SIM009"]


def test_sim009_clean_on_stable_field():
    violations, _ = lint_snippet(
        "order = sorted(cmds, key=lambda c: (c.deadline, c.id))\n", "SIM009"
    )
    assert violations == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------

def test_inline_suppression_with_justification():
    violations, suppressed = lint_snippet(
        "import random  # simlint: disable=SIM001 -- test helper\n", "SIM001"
    )
    assert violations == []
    assert suppressed == 1


def test_standalone_comment_suppresses_next_code_line():
    violations, suppressed = lint_snippet(
        "# simlint: disable=SIM001 -- the justification\n"
        "# may continue over further comment lines.\n"
        "import random\n",
        "SIM001",
    )
    assert violations == []
    assert suppressed == 1


def test_file_level_suppression():
    violations, suppressed = lint_snippet(
        "# simlint: disable-file=SIM006\n"
        "_A = {}\n_B = {}\n",
        "SIM006",
    )
    assert violations == []
    assert suppressed == 2


def test_suppression_is_rule_specific():
    violations, suppressed = lint_snippet(
        "import random  # simlint: disable=SIM002 -- wrong id on purpose\n",
        "SIM001",
    )
    assert ids_of(violations) == ["SIM001"]
    assert suppressed == 0


def test_suppression_does_not_leak_past_next_code_line():
    violations, _ = lint_snippet(
        "# simlint: disable=SIM001\n"
        "import json\n"
        "import random\n",
        "SIM001",
    )
    assert ids_of(violations) == ["SIM001"]
    assert violations[0].line == 3


def test_carry_reaches_def_line_through_decorator():
    violations, suppressed = lint_snippet(
        "import functools\n"
        "# simlint: disable=SIM001 -- planted on the def line below\n"
        "@functools.wraps(print)\n"
        "def handler():\n"
        "    import random\n",
        "SIM001",
    )
    # The carry lands on the decorator line AND continues to the def
    # line; the body line is past the carry and still fires.
    assert ids_of(violations) == ["SIM001"]
    assert violations[0].line == 5
    assert suppressed == 0


def test_carry_through_stacked_decorators():
    source = (
        "# simlint: disable=SIM012 -- registered handler, audited view write\n"
        "@one\n"
        "@two\n"
        "def handler():\n"
        "    pass\n"
    )
    from repro.lint.framework import LintContext

    context = LintContext("snippet.py", source)
    for line in (2, 3, 4):
        assert "SIM012" in context.line_suppressions.get(line, set())
    assert "SIM012" not in context.line_suppressions.get(5, set())


def test_carry_stops_at_first_plain_code_line():
    source = (
        "# simlint: disable=SIM006\n"
        "FIRST = {}\n"
        "SECOND = {}\n"
    )
    violations, suppressed = lint_snippet(source, "SIM006")
    assert suppressed == 1
    assert ids_of(violations) == ["SIM006"]
    assert violations[0].line == 3


def test_suppression_on_nested_function_line_only():
    violations, suppressed = lint_snippet(
        "def outer():\n"
        "    import random\n"
        "    # simlint: disable=SIM001 -- nested helper needs it\n"
        "    def inner():\n"
        "        import random\n",
        "SIM001",
    )
    # The comment above the nested def suppresses nothing on the outer
    # import; only the line it carries to is covered.  The import inside
    # inner() is on line 5, past the carry, so both imports still fire.
    assert [v.line for v in violations] == [2, 5]
    assert suppressed == 0


def test_disable_file_combined_with_per_line():
    violations, suppressed = lint_snippet(
        "# simlint: disable-file=SIM006 -- registry module, audited\n"
        "_CACHE = {}\n"
        "import random  # simlint: disable=SIM001 -- seeded below\n"
        "_MORE = {}\n",
        "SIM006",
    )
    assert violations == []
    assert suppressed == 2
    violations, suppressed = lint_snippet(
        "# simlint: disable-file=SIM006 -- registry module, audited\n"
        "_CACHE = {}\n"
        "import random  # simlint: disable=SIM001 -- seeded below\n"
        "_MORE = {}\n",
        "SIM001",
    )
    assert violations == []
    assert suppressed == 1


def test_disable_file_does_not_leak_to_other_rules():
    violations, _ = lint_snippet(
        "# simlint: disable-file=SIM006\n"
        "import random\n"
        "_CACHE = {}\n",
        "SIM001",
    )
    assert ids_of(violations) == ["SIM001"]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def test_rule_ids_are_stable_and_unique():
    ids = [rule.id for rule in ALL_RULES]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids) == 10
    assert ids[0] == "SIM001"
    assert ids[-1] == "SIM012"


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError, match="SIM999"):
        rule_by_id("SIM999")
