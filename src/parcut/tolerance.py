"""The one comparison slack of the package's geometric predicates."""

from __future__ import annotations


def slack(scale):
    """Allowed wiggle room at magnitude `scale` (a float or an array):
    1e-12 absolute plus 1e-9 relative.  Not configurable."""
    return 1e-12 + 1e-9 * abs(scale)
