"""The machine's current speed, read from a fixed reference task.

The benchmark runs on a few vCPUs of a shared host.  The CPU time of one
and the same pure-Python work moves by a factor of two there, with the
load of other tenants, over minutes and within milliseconds alike, and
long operations never escape it.  So the loop interleaves short chunks of
a fixed reference task, pure Python like lexroad and independent of it,
and scales every CPU time by ``REFERENCE_S`` over the mean time of the
chunks read next to it: times read as on a machine where one chunk takes
``REFERENCE_S``.  A change to lexroad
moves the scaled times; a change in the host's load moves the operations
and the chunks alike and cancels.
"""

from __future__ import annotations

import gc
import random
import time

import oracles
import synth

# The nominal time of one chunk, a round figure near what it takes on a
# shared 2-vCPU host with Python 3.11 (0.35-0.8 ms).
REFERENCE_S = 0.0005
# Read a chunk after at least this much CPU time of work.  The host's speed
# moves within milliseconds, and a chunk read next to an operation tracks
# it closely, so each operation is scaled by the chunks on either side.
EVERY_S = 0.004
# Chunks read on each side of a set-up, whose steps can be long.
SETUP_CHUNKS = 10


class Reference:
    """Evaluates fixed formulas over every assignment of their inputs."""

    def __init__(self):
        rule = synth.generate("else-guards", 6, random.Random("reference"))
        self.formulas = list(rule.decisions().values())
        self.assignments = list(oracles.assignments(rule.inputs()))

    def chunk(self) -> float:
        """CPU seconds of one chunk, with cyclic garbage collection held off
        so that the size of lexroad's heap does not show in it."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.process_time()
        for env in self.assignments:
            for f in self.formulas:
                synth.evaluate(f, env)
        elapsed = time.process_time() - start
        if enabled:
            gc.enable()
        return elapsed


class Pacer:
    """Reads reference chunks between the steps of some timed work."""

    def __init__(self, reference: Reference, chunks: int = 1):
        self.reference = reference
        self.chunks: list[float] = []
        self.read(chunks)

    def read(self, count: int = 1) -> None:
        self.chunks += [self.reference.chunk() for _ in range(count)]
        self._mark = time.process_time()

    def tick(self) -> None:
        """Call between steps: reads a chunk once ``EVERY_S`` of work has passed."""
        if time.process_time() - self._mark >= EVERY_S:
            self.read()

    def last(self) -> int:
        """Index of the chunk read last: the one before the next step."""
        return len(self.chunks) - 1

    def scale(self) -> float:
        """Factor that turns CPU time measured among the chunks into reference time."""
        return REFERENCE_S * len(self.chunks) / sum(self.chunks)

    def scale_between(self, before: int) -> float:
        """The factor for a step between chunk ``before`` and the next one."""
        return 2 * REFERENCE_S / (self.chunks[before] + self.chunks[before + 1])
