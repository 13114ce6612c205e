"""The run-counter table names attributes that really exist.

The power-cycle carry-over skips a row whose attribute the built module
lacks (FTL rows exist on one FTL kind only), so a typo or a rename in
``RUN_COUNTERS`` would silently stop a counter from carrying.  Building
every module and resolving every row catches that.
"""

from __future__ import annotations

import pytest

from repro import FtlKind, RecoveryStrategy, small_config
from repro.controller.controller import RUN_COUNTERS, SsdController
from repro.core.engine import Simulator


def controller_with_everything_on(ftl: FtlKind) -> SsdController:
    config = small_config()
    config.controller.ftl = ftl
    config.controller.write_buffer_pages = 16
    config.reliability.enabled = True
    config.overload.enabled = True
    config.crash.strategy = RecoveryStrategy.CHECKPOINT_JOURNAL
    return SsdController(Simulator(), config, crash_armed=True)


@pytest.fixture(scope="module")
def controllers() -> dict[FtlKind, SsdController]:
    return {ftl: controller_with_everything_on(ftl) for ftl in FtlKind}


def test_every_module_is_built(controllers) -> None:
    for controller in controllers.values():
        for module_name, _, _ in RUN_COUNTERS:
            assert getattr(controller, module_name) is not None, module_name


def test_every_row_resolves(controllers) -> None:
    for ftl, controller in controllers.items():
        for module_name, attr, _ in RUN_COUNTERS:
            if module_name == "ftl":
                continue
            assert hasattr(getattr(controller, module_name), attr), (ftl, module_name, attr)


def test_every_ftl_row_exists_on_some_ftl(controllers) -> None:
    for module_name, attr, _ in RUN_COUNTERS:
        if module_name == "ftl":
            assert any(
                hasattr(controller.ftl, attr) for controller in controllers.values()
            ), attr


def test_summary_keys_are_unique() -> None:
    keys = [key for _, _, key in RUN_COUNTERS if key is not None]
    assert len(keys) == len(set(keys))
