"""Fixtures for the durability suite: journaled controllers.

The process-wide journal hook is global state (like the tracer), so
every fixture that installs one uninstalls it on teardown — a test
failure must not leak a journal into unrelated tests.
"""

from __future__ import annotations

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.recovery import SnapshotManager, install_journal, uninstall_journal
from repro.topology import fat_tree


def fresh_cluster():
    return build_cluster_for([fat_tree(4)], 2, EVAL_256x10G)


def installed_state(cluster) -> dict[str, list]:
    """Per-switch rule state, in table order (the bit-identity probe)."""
    return {
        name: sw.installed_rules() for name, sw in cluster.switches.items()
    }


@pytest.fixture()
def ft4_config():
    return TopologyConfig.from_topology(fat_tree(4))


@pytest.fixture()
def journaled(tmp_path, ft4_config):
    """A deployed fat-tree k=4 controller with an installed journal.

    Yields ``(controller, deployment, manager, journal)``; the state
    directory is ``manager.state_dir``.
    """
    manager = SnapshotManager(tmp_path / "state", every=2)
    journal = manager.journal()
    controller = SDTController(fresh_cluster())
    install_journal(journal)
    try:
        deployment = controller.deploy(ft4_config)
        yield controller, deployment, manager, journal
    finally:
        uninstall_journal()
