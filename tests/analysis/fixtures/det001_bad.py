# lint-fixture: rel=parallel/fanin_case.py expect=DET001
"""Deliberate violations: set iteration (hash order) feeding the strict
folds — the bit pattern now varies per run.  Integer inputs get no
exemption: the rule cannot tell a byte count from a float."""

from repro.utils.numeric import compensated_sum, fold_rows


def fan_in(parts, total):
    remaining = set(parts)
    for part in remaining:
        fold_rows(part, total)
    return total


def total_bytes(arrays):
    total, _carry = compensated_sum(a.nbytes for a in set(arrays))
    return total
