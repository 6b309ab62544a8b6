"""Topology configuration files (Fig. 2's "simple configuration file").

An SDT experiment is driven by a :class:`TopologyConfig`: which logical
topology to build (by generator kind + parameters, or a custom edge
list), which routing strategy to use, whether the network is lossless
(PFC + deadlock-avoidance checking), and the monitor poll interval.
Configs round-trip through JSON so "running a different topology" is
literally pointing the controller at a different file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.topology import (
    Topology,
    build_zoo_topology,
    chain,
    dragonfly,
    fat_tree,
    mesh2d,
    mesh3d,
    torus2d,
    torus3d,
    zoo_entry,
)
from repro.telemetry import metrics
from repro.topology.diff import TopologyDiff, diff_config
from repro.util.errors import ConfigurationError

_GENERATORS = {
    "fat-tree": lambda p: fat_tree(int(p["k"])),
    "dragonfly": lambda p: dragonfly(
        int(p["a"]), int(p["g"]), int(p["h"]), p=p.get("p")
    ),
    "mesh2d": lambda p: mesh2d(
        int(p["x"]), int(p["y"]),
        hosts_per_switch=int(p.get("hosts_per_switch", 1)),
    ),
    "mesh3d": lambda p: mesh3d(
        int(p["x"]), int(p["y"]), int(p["z"]),
        hosts_per_switch=int(p.get("hosts_per_switch", 1)),
    ),
    "torus2d": lambda p: torus2d(
        int(p["x"]), int(p["y"]),
        hosts_per_switch=int(p.get("hosts_per_switch", 1)),
    ),
    "torus3d": lambda p: torus3d(
        int(p["x"]), int(p["y"]), int(p["z"]),
        hosts_per_switch=int(p.get("hosts_per_switch", 1)),
    ),
    "chain": lambda p: chain(
        int(p.get("num_switches", 8)),
        hosts_per_switch=int(p.get("hosts_per_switch", 1)),
    ),
    "zoo": lambda p: build_zoo_topology(
        zoo_entry(p["name"]),
        hosts_per_switch=int(p.get("hosts_per_switch", 0)),
    ),
}


def _build_custom(params: dict) -> Topology:
    """Custom topology from explicit node/link lists."""
    topo = Topology(name=params.get("name", "custom"))
    for s in params.get("switches", []):
        topo.add_switch(s)
    for h in params.get("hosts", []):
        topo.add_host(h)
    for a, b in params.get("links", []):
        topo.connect(a, b)
    topo.validate()
    return topo


def _links_built(count: int) -> None:
    metrics.registry().counter(
        "sdt_topology_links_built_total",
        "logical links a config build connected, or an edit's splice "
        "connected again (added, or kept at a node whose ports renumber)",
    ).inc(count)


@dataclass
class TopologyConfig:
    """One experiment's controller configuration."""

    kind: str  # generator name or "custom"
    params: dict = field(default_factory=dict)
    routing: str = "auto"  # "auto" or a strategy name
    lossless: bool = True  # PFC on + deadlock check before deploy
    monitor_interval: float = 1.0  # Network Monitor poll period (s)
    label: str = ""  # free-form experiment label

    def build(self) -> Topology:
        """Materialize the logical topology."""
        if self.kind == "custom":
            topology = _build_custom(self.params)
        else:
            try:
                gen = _GENERATORS[self.kind]
            except KeyError:
                raise ConfigurationError(
                    f"unknown topology kind {self.kind!r}; choose from "
                    f"{sorted(_GENERATORS)} or 'custom'"
                ) from None
            try:
                topology = gen(self.params)
            except KeyError as missing:
                raise ConfigurationError(
                    f"topology kind {self.kind!r} missing parameter {missing}"
                ) from None
        _links_built(len(topology.links))
        return topology

    def diff_from(self, live: Topology) -> TopologyDiff | None:
        """The diff taking ``live`` to this config's topology, read off
        a custom config's lists without building anything
        (:func:`~repro.topology.diff.diff_config`) — or None for a
        generator config, or one whose surviving links leave ``live``'s
        order: :meth:`build` that one and diff it whole."""
        if self.kind != "custom":
            return None
        params = self.params
        return diff_config(
            live,
            params.get("switches", []),
            params.get("hosts", []),
            params.get("links", []),
        )

    def splice(self, live: Topology, diff: TopologyDiff) -> Topology:
        """:meth:`build`, made by editing ``live`` along ``diff`` (from
        :meth:`diff_from`): equal to the build, port numbering and link
        indices included, and validated."""
        params = self.params
        topology, built = live.spliced(
            params.get("name", "custom"),
            params.get("switches", []),
            params.get("hosts", []),
            params.get("links", []),
            diff.kept,
            diff.touched_nodes(),
        )
        topology.validate()
        _links_built(built)
        return topology

    @classmethod
    def from_topology(
        cls,
        topology: Topology,
        *,
        name: str | None = None,
        lossless: bool = False,
        monitor_interval: float = 1.0,
        label: str = "",
    ) -> "TopologyConfig":
        """``topology`` as a self-contained, deployable custom config.

        Routing is pinned to shortest-path, which routes any connected
        edit: dimension order and dragonfly minimal refuse a missing
        link, and the perf ledger's edit workloads read this pin. Lossy
        by default so the Deadlock Avoidance module does not veto an
        edit whose mechanics are what the caller is exercising.
        ``name`` renames the topology (deployments are keyed by it).
        """
        return cls(
            kind="custom",
            params={
                "name": topology.name if name is None else name,
                "switches": list(topology.switches),
                "hosts": list(topology.hosts),
                "links": [list(link.endpoints) for link in topology.links],
            },
            routing="shortest-path",
            lossless=lossless,
            monitor_interval=monitor_interval,
            label=label,
        )

    # --- JSON round trip --------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind,
                "params": self.params,
                "routing": self.routing,
                "lossless": self.lossless,
                "monitor_interval": self.monitor_interval,
                "label": self.label,
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TopologyConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad config JSON: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "TopologyConfig":
        """Validate an already-parsed config object: unknown keys and
        a missing ``kind`` are rejected here, for every entry point."""
        unknown = set(data) - {
            "kind", "params", "routing", "lossless", "monitor_interval", "label",
        }
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigurationError("config missing required key 'kind'")
        return cls(
            kind=data["kind"],
            params=data.get("params", {}),
            routing=data.get("routing", "auto"),
            lossless=data.get("lossless", True),
            monitor_interval=data.get("monitor_interval", 1.0),
            label=data.get("label", ""),
        )

    @classmethod
    def load(cls, path: str | Path) -> "TopologyConfig":
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())
