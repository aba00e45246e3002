# lint-fixture: rel=parallel/pooluse_case.py expect=CON002
"""Deliberate violation: returning (or storing) the result of a call *on*
the pool hands off the result, not the pool — the forked workers are
never closed."""

from repro.parallel.pool import WorkerPool


def _work(a, b):
    return a + b


def sweep(args):
    pool = WorkerPool(2)
    return pool.starmap(_work, args)


class Sweeper:
    def run(self, args):
        pool = WorkerPool(2)
        self.parts = pool.starmap(_work, args)
