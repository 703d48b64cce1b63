"""The compiled core's per-node MT19937 continues ``random.Random``.

Every processor draws from a ``random.Random`` seeded from its node's
``SeedSequence`` child.  On the compiled core that stream continues in
C from ``getstate()`` and goes back through ``setstate()``, so the C
draws must be the Python draws bit for bit: ``random()``, ``uniform()``,
``randrange()`` and ``jittered_cycles``, and the state after them.
``bc_rng_draws`` runs the core's own stream functions on one state.
"""

import random

import numpy as np
import pytest

from repro.sim import batchcore
from repro.workload.base import jittered_cycles

LOADED = batchcore.load()
pytestmark = pytest.mark.skipif(
    LOADED is None, reason=f"core unavailable: {batchcore.load_failure()}"
)

DRAWS = 100_000
RANDOM, UNIFORM, JITTERED, RANDRANGE = 0, 1, 2, 3


def node_rng(seed, node):
    """The generator ``Processor`` builds for ``node`` under ``seed``."""
    seq = np.random.SeedSequence(seed, spawn_key=(node,))
    return random.Random(
        int.from_bytes(seq.generate_state(4, np.uint32).tobytes(), "little")
    )


def c_draws(rng, kind, count, a=0.0, b=0.0):
    """``count`` C draws continuing ``rng``; returns (values, state)."""
    ffi, lib = LOADED
    version, internal, gauss_next = rng.getstate()
    state = ffi.new("uint32_t[]", list(internal))
    out = ffi.new("double[]", max(count, 1))
    lib.bc_rng_draws(state, kind, a, b, count, out)
    values = ffi.unpack(out, count)
    return values, (version, tuple(ffi.unpack(state, 625)), gauss_next)


@pytest.mark.parametrize("seed,node", [(0, 0), (7, 5), (1992, 63)])
def test_random_stream_and_state(seed, node):
    rng = node_rng(seed, node)
    values, state = c_draws(rng, RANDOM, DRAWS)
    assert values == [rng.random() for _ in range(DRAWS)]
    assert state == rng.getstate()


@pytest.mark.parametrize("lo,hi", [(4.0, 12.0), (-3.5, 7.25), (150.0, 250.0)])
def test_uniform(lo, hi):
    rng = node_rng(11, 3)
    values, state = c_draws(rng, UNIFORM, DRAWS, lo, hi)
    assert values == [rng.uniform(lo, hi) for _ in range(DRAWS)]
    assert state == rng.getstate()


@pytest.mark.parametrize(
    "base,jitter", [(8, 0.5), (200, 0.25), (1, 0.9), (3, 0.999), (1000, 0.5)]
)
def test_jittered_cycles(base, jitter):
    rng = node_rng(1992, 7)
    values, state = c_draws(rng, JITTERED, DRAWS, base, jitter)
    assert values == [jittered_cycles(base, jitter, rng) for _ in range(DRAWS)]
    assert state == rng.getstate()


@pytest.mark.parametrize("n", [1, 2, 63, 255, 1000, (1 << 20) - 1])
def test_randrange(n):
    rng = node_rng(5, 1)
    values, state = c_draws(rng, RANDRANGE, DRAWS, n)
    assert values == [rng.randrange(n) for _ in range(DRAWS)]
    assert state == rng.getstate()


@pytest.mark.parametrize("base,jitter", [(8, 0.0), (0, 0.0), (5, -0.5)])
def test_no_jitter_draws_nothing(base, jitter):
    rng = node_rng(3, 2)
    before = rng.getstate()
    values, state = c_draws(rng, JITTERED, 1000, base, jitter)
    assert values == [max(1, base)] * 1000
    assert state == before
    assert jittered_cycles(base, jitter, rng) == max(1, base)
    assert rng.getstate() == before


def _undo_right(y, shift):
    result = y
    for _ in range(32 // shift + 1):
        result = y ^ (result >> shift)
    return result & 0xFFFFFFFF


def _undo_left(y, shift, mask):
    result = y
    for _ in range(32 // shift + 1):
        result = y ^ ((result << shift) & mask)
    return result & 0xFFFFFFFF


def untemper(y):
    """The MT word whose tempered output is ``y``."""
    y = _undo_right(y, 18)
    y = _undo_left(y, 15, 0xEFC60000)
    y = _undo_left(y, 7, 0x9D2C5680)
    return _undo_right(y, 11)


def rng_about_to_draw(r):
    """A generator whose next ``random()`` is exactly ``r`` (27 bits)."""
    rng = node_rng(0, 0)
    version, internal, gauss_next = rng.getstate()
    words = list(internal)
    index = 100
    words[index] = untemper(int(r * (1 << 27)) << 5)
    words[index + 1] = untemper(0)
    words[624] = index
    rng.setstate((version, tuple(words), gauss_next))
    return rng


@pytest.mark.parametrize(
    "base,r,expected",
    [
        (2, 0.25, 2),   # 1.5
        (2, 0.75, 2),   # 2.5: half-up would give 3
        (4, 0.125, 2),  # 2.5
        (4, 0.375, 4),  # 3.5
        (4, 0.625, 4),  # 4.5
    ],
)
def test_ties_round_half_even(base, r, expected):
    probe = rng_about_to_draw(r)
    assert probe.random() == r
    rng = rng_about_to_draw(r)
    values, state = c_draws(rng, JITTERED, 1, base, 0.5)
    assert jittered_cycles(base, 0.5, rng) == expected
    assert values == [expected]
    assert state == rng.getstate()
