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

from typing import NamedTuple

from .polyring import MultiPoly

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

    def total(self) -> int:
        return sum(d.total() * 3**j for j, d in enumerate(self.digits))

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


def _digit_choices(c: int) -> list[DigitRecord]:
    # All (over, tilde, plain) with over+tilde+plain == c, in ascending order.
    out = []
    for over in (0, 1):
        for tilde in (0, 1):
            plain = c - over - tilde
            if 0 <= plain <= 2:
                out.append(DigitRecord(over, tilde, plain))
    return out


def count_partitions(n: int) -> int:
    """Number of restricted colored base-3 partitions of ``n`` (digit recursion, exact).

    With f(-1) = 0, f(0) = 1 and r = m mod 3, the count obeys
    f(m) = sum over c in (r, r + 3), c <= 4, of ways(c) * f((m - c) // 3).
    So the pair (f(x), f(x - 1)) depends only on the pair at x // 3, and
    the loop carries it up the prefixes x = n // 3^j, most significant
    digit first, in as many steps as ``n`` has base-3 digits.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
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


def enumerate_partitions(n: int, cap: int = DEFAULT_LIST_CAP) -> list[ColoredPartition]:
    """All partitions of ``n``, in lexicographic order on digit records from j = 0 up.

    Raises CapExceeded when the partition count (known cheaply in advance)
    would exceed ``cap``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    total = count_partitions(n)
    if total > cap:
        raise CapExceeded(n, total, cap)

    results: list[ColoredPartition] = []
    prefix: list[DigitRecord] = []

    def recurse(m: int) -> None:
        if m == 0:
            results.append(ColoredPartition(tuple(prefix)))
            return
        r = m % 3
        choices = []
        for c in (r, r + 3):
            if c <= 4 and c <= m:
                choices.extend(_digit_choices(c))
        choices.sort()
        for record in choices:
            prefix.append(record)
            recurse((m - record.total()) // 3)
            prefix.pop()

    recurse(n)
    return results


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
