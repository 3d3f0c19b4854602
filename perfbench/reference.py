"""Independent references the benchmark checks results against.

Nothing here calls into `spgames`: the deadline simulation works on
per-class counts, the bound on e/(e-1) comes from a rational upper bound
on e, and digests are plain SHA-256 over canonical text.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

# e < 2.7182818285, so e/(e-1) = 1 + 1/(e-1) > 1 + 1/(E_UPPER - 1).
E_UPPER = Fraction(27182818285, 10 ** 10)
SEQUENTIAL_BOUND_LOWER = 1 + 1 / (E_UPPER - 1)


def deadline_rounds(n: int) -> list[int]:
    """Items each player keeps in sequential play on `ex_seq(n)` at alpha 1.

    n deadline classes of n unit jobs each, class d due at time d.  A
    count vector fits one machine exactly when every prefix sum by
    deadline is at most that deadline.  Each player scans from the
    largest class down and keeps every job that still fits.
    """
    remaining = {d: n for d in range(1, n + 1)}
    kept_per_player = []
    for _ in range(n):
        picked = {d: 0 for d in range(1, n + 1)}
        for deadline in range(n, 0, -1):
            for _ in range(remaining[deadline]):
                picked[deadline] += 1
                running = 0
                fits = True
                for d in range(1, n + 1):
                    running += picked[d]
                    if running > d:
                        fits = False
                        break
                if not fits:
                    picked[deadline] -= 1
                    break
        for d, count in picked.items():
            remaining[d] -= count
        kept_per_player.append(sum(picked.values()))
    return kept_per_player


def collusion_bound(alpha: Fraction, n: int, k: int) -> Fraction:
    """alpha + (n - k)/(n - 1), the k-collusion bound for n >= 2 players."""
    return alpha + Fraction(n - k, n - 1)


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def sets_text(sets) -> str:
    return "|".join(",".join(sorted(s)) for s in sets)
