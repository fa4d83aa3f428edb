"""Comparison tolerance policy.

Every geometric predicate in the package funnels floating point
comparisons through a `Tol` instance instead of raw equality.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tol:
    """Absolute/relative tolerance pair used by all predicates."""

    abs: float = 1e-12
    rel: float = 1e-9

    def slack(self, scale: float = 1.0) -> float:
        """Allowed wiggle room at a given magnitude."""
        s = scale if scale >= 0 else -scale
        return self.abs + self.rel * s


DEFAULT_TOL = Tol()
