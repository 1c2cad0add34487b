"""Finite full Pi-algebras and their order axioms.

An algebra is a carrier 0..n-1, a designated top element, and a total
table pi(w, S) for every element w and every subset S of the carrier,
subsets encoded as bitmasks (bit i = element i).  Fullness is therefore
a construction invariant, not something to check.  Orders are separate
objects: evaluation never needs one, only the ordered/complete axiom
checks do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .errors import SizeTooLargeForExhaustive

EXHAUSTIVE_LIMIT = 2


@dataclass(frozen=True)
class FiniteAlgebra:
    n: int
    top: int
    pi_table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not 0 <= self.top < self.n:
            raise ValueError(f"top {self.top} outside carrier 0..{self.n - 1}")
        if len(self.pi_table) != self.n:
            raise ValueError("pi table needs one row per element")
        for row in self.pi_table:
            if len(row) != 1 << self.n:
                raise ValueError("pi table rows need one entry per subset")
            if any(not 0 <= v < self.n for v in row):
                raise ValueError("pi table entry outside carrier")

    def pi(self, w: int, mask: int) -> int:
        return self.pi_table[w][mask]

    def arrow(self, w: int, w2: int) -> int:
        return self.pi_table[w][1 << w2]

    def subsets(self) -> range:
        return range(1 << self.n)

    def mask_of(self, elems) -> int:
        mask = 0
        for w in elems:
            mask |= 1 << w
        return mask


def mask_elements(mask: int, n: int) -> list[int]:
    return [w for w in range(n) if mask >> w & 1]


@dataclass(frozen=True)
class OrderRelation:
    n: int
    leq: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n, leq = self.n, self.leq
        if len(leq) != n or any(len(row) != n for row in leq):
            raise ValueError("relation matrix must be n by n")
        for x in range(n):
            if not leq[x][x]:
                raise ValueError(f"not reflexive at {x}")
        for x in range(n):
            for y in range(n):
                if leq[x][y] and leq[y][x] and x != y:
                    raise ValueError(f"not antisymmetric at {x},{y}")
                if leq[x][y]:
                    for z in range(n):
                        if leq[y][z] and not leq[x][z]:
                            raise ValueError(f"not transitive at {x},{y},{z}")

    def holds(self, x: int, y: int) -> bool:
        return self.leq[x][y]

    def set_leq(self, s_mask: int, t_mask: int) -> bool:
        """Elementwise majorization: every member of S is below some member of T."""
        for y in mask_elements(s_mask, self.n):
            if not any(self.leq[y][z] for z in mask_elements(t_mask, self.n)):
                return False
        return True


def discrete_order(n: int) -> OrderRelation:
    return OrderRelation(n, tuple(tuple(x == y for y in range(n)) for x in range(n)))


def all_orders(n: int) -> list[OrderRelation]:
    """Every partial order on 0..n-1 (brute force; meant for tiny n)."""
    diag = [(x, y) for x in range(n) for y in range(n) if x != y]
    out = []
    for bits in product((False, True), repeat=len(diag)):
        rel = [[x == y for y in range(n)] for x in range(n)]
        for (x, y), b in zip(diag, bits):
            rel[x][y] = b
        try:
            out.append(OrderRelation(n, tuple(tuple(row) for row in rel)))
        except ValueError:
            continue
    return out


def check_ordered(alg: FiniteAlgebra, order: OrderRelation) -> bool:
    """Left anti-monotone in the element, right monotone in the subset."""
    n = alg.n
    for x in range(n):
        for y in range(n):
            if not order.holds(x, y):
                continue
            for s in alg.subsets():
                if not order.holds(alg.pi(y, s), alg.pi(x, s)):
                    return False
    for s in alg.subsets():
        for t in alg.subsets():
            if not order.set_leq(s, t):
                continue
            for x in range(n):
                if not order.holds(alg.pi(x, s), alg.pi(x, t)):
                    return False
    return True


def check_complete(alg: FiniteAlgebra, order: OrderRelation) -> bool:
    """Every subset of the carrier, the empty one included, has a lub."""
    n = order.n
    for mask in range(1 << n):
        members = mask_elements(mask, n)
        uppers = [
            u for u in range(n) if all(order.holds(y, u) for y in members)
        ]
        if not any(
            all(order.holds(u0, u) for u in uppers) for u0 in uppers
        ):
            return False
    return True


def enumerate_full_algebras(n: int):
    """All algebras of carrier size n, tops outermost.  Exhaustive only
    for n <= 2; the count n^(n * 2^n) * n explodes after that."""
    if n < 1:
        raise ValueError("carrier must be nonempty")
    if n > EXHAUSTIVE_LIMIT:
        raise SizeTooLargeForExhaustive(
            f"{n}^({n}*2^{n})*{n} algebras is past exhaustive reach; sample instead"
        )
    rows = 1 << n
    for top in range(n):
        for flat in product(range(n), repeat=n * rows):
            table = tuple(flat[i * rows:(i + 1) * rows] for i in range(n))
            yield FiniteAlgebra(n, top, table)


def sample_full_algebras(n: int, count: int, seed: int = 0):
    """`count` distinct algebras of carrier size n, drawn at random: a draw
    already yielded is skipped, and the sample stops at every algebra
    there is when count is larger."""
    if n < 1:
        raise ValueError("carrier must be nonempty")
    rng = random.Random(seed)
    rows = 1 << n
    wanted, seen = min(count, n ** (n * rows) * n), set()
    while len(seen) < wanted:
        top = rng.randrange(n)
        table = tuple(
            tuple(rng.randrange(n) for _ in range(rows)) for _ in range(n)
        )
        alg = FiniteAlgebra(n, top, table)
        if alg not in seen:
            seen.add(alg)
            yield alg


# --- .alg literal files ----------------------------------------------------

def write_alg(alg: FiniteAlgebra) -> str:
    lines = [f"{alg.n} {alg.top}"]
    lines += [" ".join(str(v) for v in row) for row in alg.pi_table]
    return "\n".join(lines) + "\n"


def read_alg(text: str) -> FiniteAlgebra:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows or len(rows[0]) != 2:
        raise ValueError("first line must be: n top")
    n, top = int(rows[0][0]), int(rows[0][1])
    if len(rows) != n + 1:
        raise ValueError(f"expected {n} table rows, found {len(rows) - 1}")
    table = tuple(tuple(int(v) for v in row) for row in rows[1:])
    return FiniteAlgebra(n, top, table)
