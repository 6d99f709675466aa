import random
from itertools import permutations

from bergeham.hypergraph import Hypergraph, universe_masks


def random_hypergraph(rng: random.Random, n: int, r: int, m: int | None = None) -> Hypergraph:
    u = universe_masks(n, r)
    if m is None:
        m = rng.randint(0, len(u))
    return Hypergraph(n, r, rng.sample(u, m))


def labeled_copies(h: Hypergraph) -> list[tuple[int, ...]]:
    """Every labeled copy of ``h`` on its vertex set, as a sorted edge-mask
    tuple, by brute force over all n! relabelings."""
    return sorted({tuple(sorted(h.relabel(p).edges)) for p in permutations(range(h.n))})
