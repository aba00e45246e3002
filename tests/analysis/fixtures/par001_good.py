# lint-fixture: rel=bench/programs.py expect=none
"""Clean counterpart: module-level (picklable) work units."""

from repro.parallel import WorkerPool


def square(v):
    return v * v


def block_sum(items, start, stop):
    return sum(items[start:stop])


def run(items, n):
    with WorkerPool(workers=2) as pool:
        squares = pool.map(square, items)
        blocks = pool.starmap(block_sum, [(items, 0, n // 2), (items, n // 2, n)])
    return squares, blocks
