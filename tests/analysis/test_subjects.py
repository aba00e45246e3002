"""Every rule guards a real subject in ``src/``.

One case per registered rule: a real ``src/repro`` file, linted as it
stands, must be clean; the same file with a one-line textual mutation
(the regression the rule exists to catch) must report exactly that
rule.  A rule for which no such mutation exists has nothing left to
check and should be deleted rather than listed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import RULE_REGISTRY, LintEngine

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"


@dataclass(frozen=True)
class Subject:
    rule: str
    rel: str
    #: Text that occurs exactly once in the file (enough context to pin one line).
    old: str
    new: str


SUBJECTS = [
    Subject(
        "NUM001", "core/fastgrid.py",
        "    valid = den > 0.0\n",
        "    valid = den != 0.0\n",
    ),
    Subject(
        "NUM002", "core/api.py",
        "    x, y = check_paired_samples(x, y)\n",
        "    x, y = np.asarray(x), np.asarray(y)\n",
    ),
    Subject(
        "NUM003", "core/fastgrid.py",
        "            self.prefix[r - 1] = power\n",
        "            self.prefix[r - 1] = power\n"
        "            scratch = np.empty(u.shape[0], dtype=np.float64)\n",
    ),
    Subject(
        "NUM004", "core/fastgrid.py",
        "    sq_sums = np.zeros(grid.shape[0], dtype=np.float64)\n",
        "    sq_sums = np.zeros(grid.shape[0])\n",
    ),
    Subject(
        "PAR001", "core/blockwise.py",
        "pool.starmap(shm_block_rows, args_list)",
        "pool.starmap(lambda *a: shm_block_rows(*a), args_list)",
    ),
    Subject(
        "GPU001", "gpusim/kernel.py",
        "    for block_idx in range(grid_dim):\n",
        "    for block_idx in range(grid_dim):\n"
        "        started = time.time()\n",
    ),
    Subject(
        "ROB001", "parallel/shm.py",
        "            except FileNotFoundError:  # pragma: no cover - already gone\n",
        "            except Exception:  # pragma: no cover - already gone\n",
    ),
    Subject(
        "SRV001", "serving/server.py",
        "        await self._predict_scheduler.drain()\n",
        "        time.sleep(0.01)\n"
        "        await self._predict_scheduler.drain()\n",
    ),
    Subject(
        "OBS001", "core/fastgrid.py",
        "                fold_rows(contrib, sq_sums)\n",
        "                fold_rows(contrib, sq_sums)\n"
        '                tracer.counter("fastgrid.rows", sl.stop - sl.start)\n',
    ),
    Subject(
        "DET001", "core/fastgrid.py",
        "        if not tracer.enabled:\n"
        "            for sl in chunk_slices(n, rows):\n",
        "        if not tracer.enabled:\n"
        "            for sl in set(chunk_slices(n, rows)):\n",
    ),
    Subject(
        "DET003", "core/selectors.py",
        "        rng = np.random.default_rng(self.seed)\n",
        "        rng = np.random.default_rng()\n",
    ),
    Subject(
        "CON001", "core/blockwise.py",
        "    finally:\n        workspace.close()\n",
        "    finally:\n        pass\n",
    ),
    Subject(
        "CON002", "core/blockwise.py",
        "        with pool:\n",
        "        pool.open()\n        if pool:\n",
    ),
]


def _lint(subject: Subject, source: str) -> set[str]:
    path = PACKAGE / subject.rel
    findings = LintEngine().lint_source(source, path=str(path), rel=subject.rel)
    return {finding.rule_id for finding in findings}


def test_every_registered_rule_has_a_subject() -> None:
    assert sorted(s.rule for s in SUBJECTS) == sorted(RULE_REGISTRY)


@pytest.mark.parametrize("subject", SUBJECTS, ids=lambda s: s.rule)
def test_rule_guards_its_subject(subject: Subject) -> None:
    source = (PACKAGE / subject.rel).read_text(encoding="utf-8")
    assert source.count(subject.old) == 1, (
        f"{subject.rel}: the mutation anchor must occur exactly once"
    )
    assert _lint(subject, source) == set()
    mutated = source.replace(subject.old, subject.new)
    assert _lint(subject, mutated) == {subject.rule}
