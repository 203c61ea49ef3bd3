"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed yields the
same points, in the same order.  A point is a dict of dotted config-path
overrides (the vocabulary of ``ExperimentConfig.with_overrides`` and of
``POST /evaluate``), so one point feeds the in-process ``Evaluator``,
the distributed fleet and the HTTP service alike.

Every point passes :func:`check_point`, the input-domain guard.  The
model rejects a static probability below ``MIN_STATIC_PROBABILITY`` (DFC
then saves no power in standby and the minimum-idle-time analysis
raises) and the 22 nm node (the ITRS table has no entry for it, so
building its library raises ``TechnologyError``); ``NODES`` therefore
lists only the modelled nodes and no generator may emit either value.
"""

from __future__ import annotations

import random

#: Below this static probability DFC has no standby saving and the
#: minimum-idle-time analysis raises.
MIN_STATIC_PROBABILITY = 0.005

#: Range the activity scalars are drawn from (well inside the domain).
SCALAR_RANGE = (0.05, 0.95)

#: Axes of the structural sweep: the modelled nodes only (no 22 nm).
NODES = ("90nm", "65nm", "45nm", "32nm")
CORNERS = ("TT", "FF", "SS", "FS", "SF")
PORT_COUNTS = (3, 4, 5, 6, 8)
FLIT_WIDTHS = (32, 64, 128, 256)
TEMPERATURE_RANGE = (25.0, 125.0)
#: Temperatures drawn per structural block: 4 nodes x 5 corners x 3
#: temperatures = 60 libraries, above the structural cache's 32.
TEMPERATURES_PER_BLOCK = 3

#: Side of one sweep grid block: 8 x 8 = 64 points per ``evaluate`` call.
BLOCK_SIDE = 8


def check_point(point: dict) -> dict:
    """Return ``point`` unchanged, or raise ``ValueError`` when it lies
    outside the model's valid domain."""
    probability = point.get("static_probability", 0.5)
    if not MIN_STATIC_PROBABILITY <= probability <= 1.0:
        raise ValueError(f"static_probability {probability} outside "
                         f"[{MIN_STATIC_PROBABILITY}, 1]")
    toggle = point.get("toggle_activity", 0.5)
    if not 0.0 <= toggle <= 1.0:
        raise ValueError(f"toggle_activity {toggle} outside [0, 1]")
    node = point.get("technology_node", "45nm")
    if node not in NODES:
        raise ValueError(f"technology_node {node!r} is not modelled")
    return point


def _rng(seed: int, stream: str, block: int) -> random.Random:
    return random.Random(f"{seed}:{stream}:{block}")


def _distinct_values(rng: random.Random, count: int, low: float, high: float,
                     digits: int) -> list[float]:
    values: set[float] = set()
    while len(values) < count:
        values.add(round(rng.uniform(low, high), digits))
    return sorted(values)


def scalar_block(seed: int, block: int, stream: str = "scalar") -> list[dict]:
    """One ``BLOCK_SIDE x BLOCK_SIDE`` grid of ``static_probability x
    toggle_activity`` at the paper's structural point, in grid order.

    Successive blocks draw fresh values, so a stream of blocks never
    repeats a point (values carry seven decimal digits).  ``stream``
    separates independent point streams of one seed (the serving mix
    draws its warm set and its fresh misses from two of them).
    """
    rng = _rng(seed, stream, block)
    low, high = SCALAR_RANGE
    probabilities = _distinct_values(rng, BLOCK_SIDE, low, high, 7)
    toggles = _distinct_values(rng, BLOCK_SIDE, low, high, 7)
    return [check_point({"static_probability": p, "toggle_activity": t})
            for p in probabilities for t in toggles]


def structural_block(seed: int, block: int) -> list[dict]:
    """One shuffled grid over node x corner x temperature x port count x
    flit width (``4 * 5 * 3 * 5 * 4 = 1200`` points).

    The block holds 60 distinct technology libraries and five schemes
    per (library, crossbar) pair — far above the structural cache's
    32-library / 256-scheme bounds — and the shuffle makes nearly every
    point miss it.  Temperatures are drawn fresh per block, so blocks
    never share a library.
    """
    rng = _rng(seed, "structural", block)
    low, high = TEMPERATURE_RANGE
    temps = _distinct_values(rng, TEMPERATURES_PER_BLOCK, low, high, 2)
    points = [
        check_point({"technology_node": node, "corner": corner,
                     "temperature_celsius": temp,
                     "crossbar.port_count": ports,
                     "crossbar.flit_width": width})
        for node in NODES for corner in CORNERS for temp in temps
        for ports in PORT_COUNTS for width in FLIT_WIDTHS
    ]
    rng.shuffle(points)
    return points


def point_stream(block_fn, seed: int, **kwargs):
    """Endless stream of points: block 0, block 1, ... of ``block_fn``."""
    block = 0
    while True:
        yield from block_fn(seed, block, **kwargs)
        block += 1


def sample_indices(seed: int, stream: str, count: int, size: int) -> list[int]:
    """A seeded sample of ``size`` positions out of ``count``, ascending."""
    rng = _rng(seed, f"sample-{stream}", 0)
    return sorted(rng.sample(range(count), min(size, count)))


# ---------------------------------------------------------------------------
# serve_mixed traffic
# ---------------------------------------------------------------------------

#: Request kinds of the serving mix.
WARM, FRESH, PAIR = "warm", "fresh", "pair"

# The traffic mix below is an assumption, not a measurement of real
# clients: a small hot set read far more often than it is extended, with
# a Zipf skew over the hot set, a few percent of fresh design points and
# a trickle of duplicate pairs to exercise coalescing.  The shares are
# exact per deck of ``DECK_SIZE`` requests (only their order is drawn),
# so the miss count of a run does not swing with the seed.
#: Zipf exponent over the warm set's ranks.
ZIPF_EXPONENT = 1.1
#: Requests per deck, and how many of them are fresh misses and pairs
#: (a pair is two requests): 3/50 = 6 % fresh, 1/50 = 2 % pairs.
DECK_SIZE = 50
FRESH_PER_DECK = 3
PAIRS_PER_DECK = 1


def zipf_weights(count: int, exponent: float) -> list[float]:
    """Unnormalised Zipf weights ``1 / rank**exponent`` for ranks 1..count."""
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


class ServeTraffic:
    """Seeded request mix for the service: warm repeats, fresh misses and
    near-simultaneous duplicate pairs.

    ``warm_points`` (one 64-point block) are evaluated before timing;
    warm requests pick one of them by Zipf rank.  Fresh points come from
    a scalar stream of their own, so they never coincide with a warm
    point or with each other.  A pair is one fresh point requested twice
    with the same due time — the second request should coalesce onto
    the first.
    """

    def __init__(self, seed: int) -> None:
        self.rng = _rng(seed, "traffic", 0)
        self.warm_points = scalar_block(seed, 0, stream="warm")
        self.weights = zipf_weights(len(self.warm_points), ZIPF_EXPONENT)
        self._fresh = point_stream(scalar_block, seed, stream="fresh")
        self._deck: list[str] = []

    def next_request(self) -> tuple[str, dict]:
        """``(kind, point)`` of the next request in the mix."""
        if not self._deck:
            self._deck = ([PAIR] * PAIRS_PER_DECK + [FRESH] * FRESH_PER_DECK
                          + [WARM] * (DECK_SIZE - PAIRS_PER_DECK - FRESH_PER_DECK))
            self.rng.shuffle(self._deck)
        kind = self._deck.pop()
        if kind == WARM:
            return self.next_warm_request()
        return kind, next(self._fresh)

    def next_warm_request(self) -> tuple[str, dict]:
        """``(WARM, point)``: a warm repeat picked by Zipf rank."""
        return WARM, self.rng.choices(self.warm_points, weights=self.weights)[0]
