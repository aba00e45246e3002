# lint-fixture: rel=bench/programs.py expect=PAR001
"""Deliberate violation: unpicklable work units go to the pool."""

from repro.parallel import WorkerPool


def run(items, n):
    def block(start, stop):
        return sum(items[start:stop])

    with WorkerPool(workers=2) as pool:
        squares = pool.map(lambda v: v * v, items)
        blocks = pool.starmap(block, [(0, n // 2), (n // 2, n)])
    return squares, blocks
