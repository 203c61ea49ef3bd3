"""RC tree representation and Elmore delay.

Crossbar delay estimation reduces to driving RC trees: a driver with an
effective resistance pushes charge through wire resistance into node and
gate capacitances.  The Elmore delay (first moment of the impulse
response) is the standard closed-form estimate; multiplied by ln(2) it
approximates the 50 % crossing time of a step response and is accurate
to ~10 % for the monotonic, near-single-pole responses these paths
exhibit — the same fidelity class as the rest of the analytical stack.

The tree is held explicitly (parent pointers + edge resistances), so the
Elmore delay to any node is the textbook sum over the path from root to
node of ``R_edge * C_downstream``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import CircuitError

__all__ = ["RCTree", "LN2"]

#: ln(2): converts an Elmore (first-moment) delay into a 50 % step delay.
LN2 = math.log(2.0)


@dataclass
class _TreeNode:
    name: str
    capacitance: float = 0.0
    parent: str | None = None
    resistance_to_parent: float = 0.0
    children: list[str] = field(default_factory=list)


class RCTree:
    """A grounded-capacitance RC tree rooted at a driver node.

    The root node represents the driver output *before* its effective
    resistance: add the driver resistance as the edge from the root to
    the first physical node, or use :meth:`elmore_delay_from_driver`
    which takes the driver resistance separately.
    """

    def __init__(self, root: str = "root") -> None:
        self._nodes: dict[str, _TreeNode] = {root: _TreeNode(name=root)}
        self._root = root

    # -- construction ---------------------------------------------------------
    @property
    def root(self) -> str:
        """Name of the root (driver) node."""
        return self._root

    def nodes(self) -> list[str]:
        """All node names, root first, in insertion order."""
        return list(self._nodes)

    def has_node(self, name: str) -> bool:
        """True if ``name`` is a node of this tree."""
        return name in self._nodes

    def add_node(self, name: str, parent: str, resistance: float, capacitance: float = 0.0) -> None:
        """Add a node connected to ``parent`` through ``resistance`` ohms."""
        if name in self._nodes:
            raise CircuitError(f"node {name!r} already exists in the RC tree")
        if parent not in self._nodes:
            raise CircuitError(f"parent node {parent!r} does not exist in the RC tree")
        if resistance < 0:
            raise CircuitError(f"edge resistance cannot be negative, got {resistance}")
        if capacitance < 0:
            raise CircuitError(f"node capacitance cannot be negative, got {capacitance}")
        self._nodes[name] = _TreeNode(
            name=name, capacitance=capacitance, parent=parent, resistance_to_parent=resistance
        )
        self._nodes[parent].children.append(name)

    def add_capacitance(self, name: str, capacitance: float) -> None:
        """Add extra grounded capacitance to an existing node."""
        if name not in self._nodes:
            raise CircuitError(f"node {name!r} does not exist in the RC tree")
        if capacitance < 0:
            raise CircuitError("added capacitance cannot be negative")
        self._nodes[name].capacitance += capacitance

    def add_wire(
        self,
        from_node: str,
        to_node: str,
        total_resistance: float,
        total_capacitance: float,
        segments: int = 5,
    ) -> None:
        """Add a distributed wire as an RC ladder of ``segments`` sections.

        Each section carries ``R/n`` and ``C/n``; five sections bring the
        ladder within ~2 % of the true distributed-line Elmore delay.
        The final ladder node is created with the name ``to_node``.
        """
        if segments < 1:
            raise CircuitError("a wire needs at least one segment")
        if total_resistance < 0 or total_capacitance < 0:
            raise CircuitError("wire R and C cannot be negative")
        previous = from_node
        section_r = total_resistance / segments
        section_c = total_capacitance / segments
        for index in range(segments):
            name = to_node if index == segments - 1 else f"{to_node}__seg{index}"
            self.add_node(name, previous, section_r, section_c)
            previous = name

    # -- queries ----------------------------------------------------------------
    def node_capacitance(self, name: str) -> float:
        """Grounded capacitance attached directly to ``name``."""
        if name not in self._nodes:
            raise CircuitError(f"node {name!r} does not exist in the RC tree")
        return self._nodes[name].capacitance

    def total_capacitance(self) -> float:
        """Sum of all grounded capacitance in the tree (the switched load)."""
        return sum(node.capacitance for node in self._nodes.values())

    def downstream_capacitance(self, name: str) -> float:
        """Capacitance of ``name`` and everything below it."""
        if name not in self._nodes:
            raise CircuitError(f"node {name!r} does not exist in the RC tree")
        total = self._nodes[name].capacitance
        for child in self._nodes[name].children:
            total += self.downstream_capacitance(child)
        return total

    def path_to_root(self, name: str) -> list[str]:
        """Node names from ``name`` up to (and including) the root."""
        if name not in self._nodes:
            raise CircuitError(f"node {name!r} does not exist in the RC tree")
        path = [name]
        current = self._nodes[name]
        while current.parent is not None:
            path.append(current.parent)
            current = self._nodes[current.parent]
        return path

    # -- Elmore delay --------------------------------------------------------------
    def elmore_delay(self, sink: str) -> float:
        """Elmore delay (seconds) from the root to ``sink``.

        This is the first moment of the impulse response:
        ``sum over edges on the root->sink path of R_edge * C_downstream(edge)``.
        """
        if sink not in self._nodes:
            raise CircuitError(f"sink node {sink!r} does not exist in the RC tree")
        delay = 0.0
        current = self._nodes[sink]
        while current.parent is not None:
            delay += current.resistance_to_parent * self.downstream_capacitance(current.name)
            current = self._nodes[current.parent]
        return delay

    def elmore_delay_from_driver(self, sink: str, driver_resistance: float) -> float:
        """Elmore delay including a lumped driver resistance at the root."""
        if driver_resistance < 0:
            raise CircuitError("driver resistance cannot be negative")
        return driver_resistance * self.total_capacitance() + self.elmore_delay(sink)

    def step_delay_from_driver(self, sink: str, driver_resistance: float) -> float:
        """50 % step-response delay estimate: ``ln(2)`` times the Elmore delay."""
        return LN2 * self.elmore_delay_from_driver(sink, driver_resistance)
