"""Transistor-level netlist container.

The crossbar generators emit a :class:`Netlist` per scheme.  It is not a
SPICE deck — there is no simulator attached — but it carries everything
the structural analyses need:

* the device inventory (instances, widths, polarities, Vt flavors,
  roles), which is what the Figure 1-3 reproduction benchmarks report;
* net connectivity as a graph (via :mod:`networkx`), used for sanity
  checks such as "every signal net has a path to a rail through channel
  terminals" and for counting the fan-in of the crossbar merge node;
* aggregate statistics (total transistor width, device counts by flavor)
  that feed the area-overhead discussion.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import CircuitError
from ..technology.transistor import Mosfet, Polarity, VtFlavor
from .devices import DeviceInstance, DeviceRole

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["Netlist", "NetlistStatistics"]

#: Conventional rail net names.
SUPPLY_NET = "vdd"
GROUND_NET = "gnd"


@dataclass(frozen=True)
class NetlistStatistics:
    """Aggregate numbers describing a netlist."""

    device_count: int
    total_width: float
    count_by_flavor: dict[VtFlavor, int]
    count_by_polarity: dict[Polarity, int]
    count_by_role: dict[DeviceRole, int]
    width_by_flavor: dict[VtFlavor, float]

    @classmethod
    def of_inventory(cls, inventory: Iterable[tuple[Mosfet, DeviceRole, int]]
                     ) -> "NetlistStatistics":
        """Statistics of ``(device, role, count)`` entries: ``count``
        instances of each sized device, no netlist needed."""
        by_flavor: dict[VtFlavor, int] = {}
        by_polarity: dict[Polarity, int] = {}
        by_role: dict[DeviceRole, int] = {}
        width_by_flavor: dict[VtFlavor, float] = {}
        device_count = 0
        total_width = 0.0
        for mosfet, role, count in inventory:
            flavor, width = mosfet.vt_flavor, count * mosfet.width
            by_flavor[flavor] = by_flavor.get(flavor, 0) + count
            by_polarity[mosfet.polarity] = by_polarity.get(mosfet.polarity, 0) + count
            by_role[role] = by_role.get(role, 0) + count
            width_by_flavor[flavor] = width_by_flavor.get(flavor, 0.0) + width
            device_count += count
            total_width += width
        return cls(
            device_count=device_count,
            total_width=total_width,
            count_by_flavor=by_flavor,
            count_by_polarity=by_polarity,
            count_by_role=by_role,
            width_by_flavor=width_by_flavor,
        )

    @property
    def high_vt_fraction(self) -> float:
        """Fraction of devices (by count) using the high-Vt flavor."""
        if self.device_count == 0:
            return 0.0
        return self.count_by_flavor.get(VtFlavor.HIGH, 0) / self.device_count

    @property
    def high_vt_width_fraction(self) -> float:
        """Fraction of total transistor width using the high-Vt flavor."""
        if self.total_width == 0:
            return 0.0
        return self.width_by_flavor.get(VtFlavor.HIGH, 0.0) / self.total_width


class Netlist:
    """A named collection of nets and transistor instances."""

    def __init__(self, name: str) -> None:
        if not name:
            raise CircuitError("netlist name cannot be empty")
        self.name = name
        self._devices: dict[str, DeviceInstance] = {}
        self._nets: set[str] = {SUPPLY_NET, GROUND_NET}

    # -- construction -----------------------------------------------------------
    def add_net(self, net: str) -> str:
        """Declare a net (idempotent) and return its name."""
        if not net:
            raise CircuitError("net name cannot be empty")
        self._nets.add(net)
        return net

    def add_device(self, device: DeviceInstance) -> DeviceInstance:
        """Add a device instance, declaring any nets it references."""
        if device.name in self._devices:
            raise CircuitError(f"duplicate device instance name {device.name!r}")
        for net in device.terminals():
            self._nets.add(net)
        self._devices[device.name] = device
        return device

    # -- queries ------------------------------------------------------------------
    @property
    def nets(self) -> set[str]:
        """All declared net names (including the rails)."""
        return set(self._nets)

    @property
    def devices(self) -> list[DeviceInstance]:
        """All device instances in insertion order."""
        return list(self._devices.values())

    def device(self, name: str) -> DeviceInstance:
        """Look up a device by instance name."""
        try:
            return self._devices[name]
        except KeyError as exc:
            raise CircuitError(f"no device named {name!r} in netlist {self.name!r}") from exc

    def devices_with_role(self, role: DeviceRole) -> list[DeviceInstance]:
        """All devices tagged with ``role``."""
        return [device for device in self._devices.values() if device.role is role]

    def devices_on_net(self, net: str) -> list[DeviceInstance]:
        """All devices with any terminal on ``net``."""
        if net not in self._nets:
            raise CircuitError(f"net {net!r} is not declared in netlist {self.name!r}")
        return [device for device in self._devices.values() if net in device.terminals()]

    def channel_graph(self) -> nx.Graph:
        """Undirected graph of nets connected by device channels (drain-source).

        Gate terminals do not create connectivity (a MOS gate is an open
        circuit at DC), which makes this graph the right structure for
        checking that every output net can actually be driven to a rail.
        """
        # Imported here: only structural sanity checks build the graph,
        # so evaluating design points never pays for networkx.
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._nets)
        for device in self._devices.values():
            graph.add_edge(device.drain, device.source, device=device.name)
        return graph

    def net_is_drivable(self, net: str) -> bool:
        """True if ``net`` has a channel path to Vdd or GND."""
        import networkx as nx

        graph = self.channel_graph()
        if net not in graph:
            raise CircuitError(f"net {net!r} is not declared in netlist {self.name!r}")
        return nx.has_path(graph, net, SUPPLY_NET) or nx.has_path(graph, net, GROUND_NET)

    def fan_in(self, net: str) -> int:
        """Number of distinct devices whose drain or source touches ``net``."""
        return len(self.devices_on_net(net))

    # -- statistics ------------------------------------------------------------------
    def statistics(self) -> NetlistStatistics:
        """Aggregate device statistics for reporting."""
        return NetlistStatistics.of_inventory(
            (device.mosfet, device.role, 1) for device in self._devices.values()
        )

    def __len__(self) -> int:
        return len(self._devices)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Netlist({self.name!r}, devices={len(self._devices)}, nets={len(self._nets)})"
