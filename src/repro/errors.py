"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so downstream users can catch a single base class.
The sub-classes partition errors by subsystem so test suites and callers
can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TechnologyError(ReproError):
    """Raised for invalid or inconsistent technology parameters.

    Examples: a negative wire width, an unknown technology node, a
    threshold voltage larger than the supply voltage.
    """


class CircuitError(ReproError):
    """Raised for malformed circuit quantities.

    Examples: a negative leakage component or scaling factor, a node
    voltage outside the supply rails.
    """


class TimingError(ReproError):
    """Raised for invalid timing analyses.

    Examples: requesting a path between unconnected pins, negative
    required times, a slack query for a path that was never analysed.
    """


class CrossbarError(ReproError):
    """Raised for invalid crossbar configurations.

    Examples: a port count below two, a flit width of zero, granting two
    inputs to the same output simultaneously, an unknown scheme name.
    """


class PowerError(ReproError):
    """Raised for invalid power analyses.

    Examples: a static probability outside ``[0, 1]``, a non-positive
    clock frequency, a break-even analysis on a scheme with no standby
    mode.
    """


class NocError(ReproError):
    """Raised for invalid network-on-chip configurations or simulations.

    Examples: a mesh with zero rows, injecting a packet to a node outside
    the topology, reading statistics before a simulation has run.
    """


class ConfigurationError(ReproError):
    """Raised when an experiment configuration is internally inconsistent."""


class DistributedError(ReproError):
    """Raised for distributed-execution failures.

    Examples: a malformed or oversized wire frame, a worker registration
    that never arrives, an item re-dispatched more times than allowed,
    every worker lost while items are still outstanding.
    """
