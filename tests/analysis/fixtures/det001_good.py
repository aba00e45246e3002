# lint-fixture: rel=parallel/fanin_case.py expect=none
"""Fold inputs arrive in index order."""

from repro.utils.numeric import fold_rows


def fan_in(parts, total):
    for index in sorted(parts):
        fold_rows(parts[index], total)
    return total
