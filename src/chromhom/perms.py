"""Permutations of {0..n-1} as tuples: p[x] is the image of x."""


def class_representative(mu: tuple[int, ...]) -> tuple[int, ...]:
    """A permutation of cycle type mu: consecutive cycles (0 1 .. ) etc."""
    n = sum(mu)
    p = list(range(n))
    start = 0
    for length in mu:
        for k in range(length):
            p[start + k] = start + (k + 1) % length
        start += length
    return tuple(p)


def adjacent_transpositions(n: int) -> list[tuple[int, ...]]:
    gens = []
    for k in range(n - 1):
        p = list(range(n))
        p[k], p[k + 1] = p[k + 1], p[k]
        gens.append(tuple(p))
    return gens
