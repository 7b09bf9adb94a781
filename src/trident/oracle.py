"""Brute-force ground truth for restricted colored base-3 partitions.

A partition of ``n`` uses parts that are powers of 3, where each power may
appear at most once overlined, at most once with a tilde, and at most twice
unmarked.  Enumeration recurses over base-3 digit positions: at position
``j`` the remaining target ``m`` forces the total number of copies of
``3**j`` to be congruent to ``m`` mod 3, which prunes hard and yields every
partition exactly once.

``count_partitions`` runs the same digit recursion as a pure count (no
lists, no polynomials, one loop step per digit), so it stays fast for
targets far beyond anything that can be listed; the enumeration and the
count cross-check each other.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .polyring import MultiPoly, natural

DEFAULT_LIST_CAP = 10_000

# Ways to realize c copies of one power as (overline, tilde, plain) choices,
# with overline <= 1, tilde <= 1, plain <= 2; any other c has none.
_WAYS = {0: 1, 1: 3, 2: 4, 3: 3, 4: 1}


class CapExceeded(Exception):
    """Requested enumeration would exceed the configured partition-list cap."""

    def __init__(self, n: int, count: int, cap: int):
        self.n = n
        self.count = count
        self.cap = cap
        super().__init__(f"{count} partitions of {n} exceed the list cap {cap}")


class DigitRecord(NamedTuple):
    """Multiplicities of one power of 3: overlined, tilde'd, and plain copies."""

    over: int
    tilde: int
    plain: int

    def total(self) -> int:
        return self.over + self.tilde + self.plain


class ColoredPartition(NamedTuple):
    """A restricted colored base-3 partition, as one ``DigitRecord`` per power.

    ``digits[j]`` describes the copies of ``3**j``; a partition never ends
    in an all-zero record.
    """

    digits: tuple[DigitRecord, ...]

    def stats(self) -> "PartitionStats":
        return PartitionStats(
            overlined=sum(d.over for d in self.digits),
            tilded=sum(d.tilde for d in self.digits),
            singles=sum(1 for d in self.digits if d.plain == 1),
            pairs=sum(1 for d in self.digits if d.plain == 2),
        )

    def render(self) -> str:
        """ASCII rendering, largest parts first: plain ``3``, overline ``3-``, tilde ``3~``."""
        parts = []
        for j in range(len(self.digits) - 1, -1, -1):
            d = self.digits[j]
            power = str(3**j)
            parts.extend([power] * d.plain)
            parts.extend([power + "-"] * d.over)
            parts.extend([power + "~"] * d.tilde)
        return "+".join(parts) if parts else "0"


class PartitionStats(NamedTuple):
    """Counts (i, j, k, l): overlined parts, tilde parts, single and paired unmarked powers."""

    overlined: int
    tilded: int
    singles: int
    pairs: int


# _CHOICES[r]: the records whose total is r or r + 3, in ascending order: the
# copies of its lowest power that a remaining target of r mod 3 can take.
_CHOICES = tuple(tuple(DigitRecord(over, tilde, c - over - tilde)
                       for c in (r, r + 3) for over in (0, 1) for tilde in (0, 1)
                       if 0 <= c - over - tilde <= 2) for r in range(3))


def count_partitions(n: int) -> int:
    """Number of restricted colored base-3 partitions of ``n`` (digit recursion, exact).

    With f(-1) = 0, f(0) = 1 and r = m mod 3, the count obeys
    f(m) = sum over c in (r, r + 3), c <= 4, of ways(c) * f((m - c) // 3).
    So the pair (f(x), f(x - 1)) depends only on the pair at x // 3, and
    the loop carries it up the prefixes x = n // 3^j, most significant
    digit first, in as many steps as ``n`` has base-3 digits.
    """
    n = natural(n)
    digits = []
    while n:
        n, d = divmod(n, 3)
        digits.append(d)
    ways = _WAYS.get
    f, f_before = 1, 0
    for d in reversed(digits):
        # x -> 3x + d: f(3x + d) takes c = d or d + 3, f(3x + d - 1) takes d - 1 or d + 2.
        f, f_before = (ways(d, 0) * f + ways(d + 3, 0) * f_before,
                       ways(d - 1, 0) * f + ways(d + 2, 0) * f_before)
    return f


def _partitions(m: int, prefix: tuple[DigitRecord, ...]) -> Iterator[ColoredPartition]:
    """Every partition whose lowest records are ``prefix``, with ``m`` left for the rest."""
    if m == 0:
        yield ColoredPartition(prefix)
    elif m > 0:   # m = -1 when a total of r + 3 overshoots
        for record in _CHOICES[m % 3]:
            yield from _partitions((m - record.total()) // 3, prefix + (record,))


def enumerate_partitions(n: int, cap: int = DEFAULT_LIST_CAP) -> list[ColoredPartition]:
    """All partitions of ``n``, in lexicographic order on digit records from j = 0 up.

    Raises CapExceeded when the partition count (known cheaply in advance)
    would exceed ``cap``.
    """
    n = natural(n)
    total = count_partitions(n)
    if total > cap:
        raise CapExceeded(n, total, cap)
    return list(_partitions(n, ()))


def oracle_poly(n: int) -> MultiPoly:
    """The 4-variable counting polynomial of ``n`` assembled term-by-term.

    Each enumerated partition contributes one monomial ``w^i x^j y^k z^l``
    from its statistics; the sum is the same polynomial the sequence engine
    computes by recurrence, but derived from nothing except the enumeration,
    under the default list cap.
    """
    counts: dict[PartitionStats, int] = {}
    for partition in enumerate_partitions(n):
        stats = partition.stats()
        counts[stats] = counts.get(stats, 0) + 1
    return MultiPoly((*stats, c) for stats, c in counts.items())
