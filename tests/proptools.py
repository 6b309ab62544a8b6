"""Seeded-RNG property-test toolbox (no hypothesis).

Deterministic generators for randomized tests: each case derives its
own :class:`numpy.random.Generator` from a root seed via
:func:`repro.util.rng.make_rng`, so failures reproduce exactly by seed
and case index (``pytest -k`` the test, read the failing index from the
assertion message, and re-derive the same RNG in a REPL).

Used by the projection round-trip properties
(``tests/core/test_projection_properties.py``) and the commit-journal
replay differentials (``tests/recovery/test_recover.py``), among
others.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.topology.graph import Topology
from repro.util.rng import make_rng


def prop_cases(default: int) -> int:
    """Number of cases a property test should run.

    ``SDT_PROP_CASES`` overrides the per-test default so CI's scheduled
    stress job can run the same suites at elevated counts (and a
    developer can drop to a handful while iterating) without touching
    the tests.
    """
    raw = os.environ.get("SDT_PROP_CASES", "").strip()
    if not raw:
        return default
    try:
        n = int(raw)
    except ValueError:
        raise RuntimeError(
            f"SDT_PROP_CASES must be an integer, got {raw!r}"
        ) from None
    if n < 1:
        raise RuntimeError(f"SDT_PROP_CASES must be >= 1, got {n}")
    return n


def seeded_cases(
    n: int, root_seed: int, *labels: object
) -> Iterator[tuple[int, np.random.Generator]]:
    """Yield ``n`` (index, rng) pairs, each rng independently seeded."""
    for i in range(n):
        yield i, make_rng(root_seed, *labels, i)


def random_topology(
    rng: np.random.Generator,
    *,
    min_switches: int = 1,
    max_switches: int = 10,
    max_extra_links: int = 6,
    max_hosts: int = 5,
    name: str = "random",
) -> Topology:
    """A random *connected* logical topology: a spanning tree over the
    switches, extra switch-switch links, and hosts hung off random
    switches — the same shape space the hypothesis-based graph
    properties explore, but reproducible from a single seed."""
    n = int(rng.integers(min_switches, max_switches + 1))
    topo = Topology(name)
    switches = [topo.add_switch(f"s{i}") for i in range(n)]
    for i in range(1, n):
        j = int(rng.integers(0, i))
        topo.connect(switches[i], switches[j])
    for _ in range(int(rng.integers(0, max_extra_links + 1))):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        if i != j and switches[j] not in topo.neighbors(switches[i]):
            topo.connect(switches[i], switches[j])
    for k in range(int(rng.integers(0, max_hosts + 1))):
        host = topo.add_host(f"h{k}")
        topo.connect(switches[int(rng.integers(0, n))], host)
    topo.validate()
    return topo


def physical_ports_of(realization) -> list[tuple[str, int]]:
    """Every physical (switch, port) a link realization occupies."""
    kind = type(realization).__name__
    if kind == "SelfLink":
        return [
            (realization.switch, realization.port_a),
            (realization.switch, realization.port_b),
        ]
    if kind == "InterSwitchLink":
        return [
            (realization.switch_a, realization.port_a),
            (realization.switch_b, realization.port_b),
        ]
    if kind == "HostPort":
        return [(realization.switch, realization.port)]
    raise TypeError(f"unknown realization {realization!r}")
