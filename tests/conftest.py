"""Shared fixtures: the bundled example instance and seeded random corpora."""

from __future__ import annotations

import pathlib
import random
from typing import List, Tuple

import pytest

from hubmin import Network, PathSystem, cuts, parse_instance, random_network

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

Instance = Tuple[Network, List[PathSystem]]

# JSON texts that ``json.loads`` rejects outside ``JSONDecodeError``: nesting
# too deep to decode (RecursionError) and an integer literal past the
# interpreter's digit limit (ValueError).
DEEP_NESTING = "[" * 200_000
LONG_INTEGER = '{"vertices": [' + "7" * 5000 + "]}"


def two_pair_corpus(
    seed: int, count: int, max_demand: int = 3, extra: int = 0
) -> List[Instance]:
    """Seeded random two-pair in-class instances.

    With ``extra=0`` every edge lies on a system path, which the three-way
    minimality equivalence presumes.
    """
    rng = random.Random(seed)
    out: List[Instance] = []
    while len(out) < count:
        demands = (rng.randint(1, max_demand), rng.randint(1, max_demand))
        g, systems = random_network(
            rng, demands, reuse=rng.uniform(0.3, 0.8), extra=extra
        )
        out.append((g, systems))
    return out


@pytest.fixture(autouse=True)
def empty_compile_slot():
    """Start every test with no network in ``cuts``' compile slot, so that
    counts of compiles, nets and flows do not depend on which test ran
    before."""
    cuts._slot.split = None


@pytest.fixture(scope="session")
def example_text() -> str:
    return (FIXTURES / "minimal_22_example.json").read_text()


@pytest.fixture(scope="session")
def example_instance(example_text) -> Instance:
    g, systems = parse_instance(example_text)
    assert systems is not None
    return g, systems
