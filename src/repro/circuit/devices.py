"""Device roles and the device statistics of an output path.

The electrical behaviour of a transistor lives in
:class:`repro.technology.transistor.Mosfet`; this module adds the
functional role tag each device of a crossbar output path carries and
the counts over an inventory of them.  Role tags are what the
figure-reproduction benchmarks aggregate over ("how many pass
transistors, keepers, sleep devices, driver devices does each scheme
instantiate, and which of them are high-Vt?").
"""

from __future__ import annotations

import enum
from collections.abc import Iterable
from dataclasses import dataclass

from ..technology.transistor import Mosfet, VtFlavor

__all__ = ["DeviceRole", "DeviceStatistics"]


class DeviceRole(enum.Enum):
    """Functional role of a device inside a crossbar output path."""

    PASS_TRANSISTOR = "pass_transistor"
    SLEEP = "sleep"
    PRECHARGE = "precharge"
    KEEPER = "keeper"
    DRIVER = "driver"
    SEGMENT_SWITCH = "segment_switch"


@dataclass(frozen=True)
class DeviceStatistics:
    """Device counts of an inventory, in total, by Vt flavor and by role."""

    device_count: int
    count_by_flavor: dict[VtFlavor, int]
    count_by_role: dict[DeviceRole, int]

    @classmethod
    def of_inventory(cls, inventory: Iterable[tuple[Mosfet, DeviceRole, int]]
                     ) -> "DeviceStatistics":
        """Statistics of ``(device, role, count)`` entries: ``count``
        instances of each sized device."""
        by_flavor: dict[VtFlavor, int] = {}
        by_role: dict[DeviceRole, int] = {}
        device_count = 0
        for mosfet, role, count in inventory:
            flavor = mosfet.vt_flavor
            by_flavor[flavor] = by_flavor.get(flavor, 0) + count
            by_role[role] = by_role.get(role, 0) + count
            device_count += count
        return cls(device_count=device_count, count_by_flavor=by_flavor,
                   count_by_role=by_role)

    @property
    def high_vt_fraction(self) -> float:
        """Fraction of devices (by count) using the high-Vt flavor."""
        if self.device_count == 0:
            return 0.0
        return self.count_by_flavor.get(VtFlavor.HIGH, 0) / self.device_count
