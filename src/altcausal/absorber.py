"""The absorber reflection identity, in plain floats.

Kept apart from ``photonclock``, which re-exports ``wf_echo``, so that
the ``wfecho`` experiment runs without loading numpy.
"""

from __future__ import annotations

import math

__all__ = ["wf_echo"]


def wf_echo(alpha: float, i_transmitted: float) -> tuple[float, float]:
    """Split transmitted information into reflected and absorbed parts.

    Returns (i_reflected, delta_s).  delta_s is i_transmitted minus the
    product alpha * i_transmitted.  Where the product is at least half of
    i_transmitted, i_reflected is the product; below that it is
    i_transmitted - delta_s, which may differ from the product by an ulp
    even where the product already balances.  Either way the two add back
    to i_transmitted bit for bit.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reflection coefficient must lie in [0, 1], got {alpha}")
    if not (math.isfinite(i_transmitted) and i_transmitted >= 0):
        raise ValueError(f"transmitted information must be finite and >= 0, got {i_transmitted}")
    i_reflected = alpha * i_transmitted
    delta_s = i_transmitted - i_reflected
    if i_reflected < 0.5 * i_transmitted:
        # Sterbenz: subtracting the larger part is exact, so nudging the
        # smaller one by at most an ulp restores an exact balance.
        i_reflected = i_transmitted - delta_s
    return i_reflected, delta_s
