"""Integer partitions and hook-length combinatorics.

Partitions are plain tuples of weakly decreasing positive integers.  All
enumeration is in reverse lexicographic order, ``(n)`` first and ``(1,)*n``
last; every table in the package indexes partitions in this order.
"""

from functools import cache
from math import factorial


def is_partition(parts: tuple[int, ...]) -> bool:
    if any(p < 1 for p in parts):
        return False
    return all(parts[i] >= parts[i + 1] for i in range(len(parts) - 1))


def check_partition(parts) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    return parts


@cache
def partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in reverse lexicographic order: each largest
    part k, from n down, followed by the partitions of n - k into parts at
    most k."""
    if n < 0:
        raise ValueError("n must be >= 0")

    def capped(n, top):  # partitions of n into parts at most top
        return [(k,) + rest for k in range(min(n, top), 0, -1)
                for rest in capped(n - k, k)] if n else [()]

    return tuple(capped(n, n))


def partition_index(n: int) -> dict[tuple[int, ...], int]:
    return {lam: k for k, lam in enumerate(partitions_of(n))}


def conjugate(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def hook_lengths(lam: tuple[int, ...]) -> list[list[int]]:
    conj = conjugate(lam)
    return [
        [lam[i] - j + conj[j] - i - 1 for j in range(lam[i])]
        for i in range(len(lam))
    ]


@cache
def hook_dimension(lam: tuple[int, ...]) -> int:
    """Dimension of the irreducible indexed by lam (hook length formula)."""
    n = sum(lam)
    d = factorial(n)
    for row in hook_lengths(lam):
        for h in row:
            d //= h
    return d


def centralizer_order(mu: tuple[int, ...]) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    z = 1
    mult: dict[int, int] = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for part, m in mult.items():
        z *= part**m * factorial(m)
    return z


def add_one_box(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Partitions obtained from lam by adding a single box."""
    out = []
    for i in range(len(lam) + 1):
        row = lam[i] if i < len(lam) else 0
        above = lam[i - 1] if i > 0 else None
        if above is None or row < above:
            new = list(lam) + [0] * (i + 1 - len(lam))
            new[i] += 1
            out.append(tuple(p for p in new if p > 0))
    return out
