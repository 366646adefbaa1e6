"""Result types shared by the MWPM and greedy decoders."""

from __future__ import annotations

from dataclasses import dataclass

from repro.decoding.weights import NORTH


@dataclass(frozen=True)
class Match:
    """One matching decision.

    ``a`` is an index into the active-node array; ``b`` is either another
    index or a boundary identifier (``NORTH`` / ``SOUTH``).
    """

    a: int
    b: int

    @property
    def to_boundary(self) -> bool:
        return self.b < 0


@dataclass
class DecodeResult:
    """Outcome of decoding one syndrome volume.

    Attributes:
        matches: the perfect matching over active nodes.
        correction_cut_parity: parity of correction paths crossing the
            north-boundary cut (= number of NORTH matches mod 2).
        weight: total matching weight (sum of matched distances).
    """

    matches: list[Match]
    correction_cut_parity: int
    weight: float

    @classmethod
    def from_matches(cls, matches: list[Match],
                     weight: float) -> "DecodeResult":
        north = sum(1 for m in matches if m.b == NORTH)
        return cls(matches, north & 1, weight)

    def covers_all(self, num_nodes: int) -> bool:
        """True iff every active node appears in exactly one match."""
        seen: set[int] = set()
        for match in self.matches:
            if match.a in seen:
                return False
            seen.add(match.a)
            if not match.to_boundary:
                if match.b in seen:
                    return False
                seen.add(match.b)
        return len(seen) == num_nodes
