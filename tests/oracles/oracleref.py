"""Reference confirmation oracle: the dense algorithm, kept as an oracle.

It answers ``confirmed_height`` the way ``SimChain`` once did itself: it
stores, per mode, the time each prefix 0..h is confirmed (the running
max of timestamp + delay) and draws every height from 1 up, in order,
until the last drawn prefix lies after the asked time.  It knows nothing
of the delay bound, the window or the memo, so agreement between the
two is evidence rather than tautology.  It reads the chain it shadows
for its headers, its clock, its seed, its label and its delay models.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional

from encumbra.config import ORACLE_MODES
from encumbra.simchain import SimChain, mode_delays


class DenseOracle:
    def __init__(self, chain: SimChain):
        self.chain = chain
        # When each prefix 0..h is confirmed, per mode: the running max
        # of timestamp + delay, so a confirmed height confirms everything
        # below it.  Holds the heights drawn so far, 0 through len - 1.
        self._prefix_times: Dict[str, List[int]] = {m: [0] for m in ORACLE_MODES}

    def drawn(self) -> range:
        """The heights drawn so far."""
        return range(1, len(self._prefix_times[ORACLE_MODES[0]]))

    def _draw_next(self) -> None:
        """Draw the prefix times of the lowest undrawn height."""
        chain = self.chain
        block = chain.header(len(self._prefix_times[ORACLE_MODES[0]]))
        delays = mode_delays(chain._seed, chain.label, chain.delay_models, block.height)
        for mode in ORACLE_MODES:
            prefix = self._prefix_times[mode]
            prefix.append(max(block.timestamp + delays[mode], prefix[-1]))

    def confirmed_height(self, mode: str, at_time: Optional[int] = None) -> int:
        """Highest height whose whole prefix is confirmed for the mode."""
        now = self.chain.time if at_time is None else at_time
        prefix = self._prefix_times[mode]
        # Prefix times never decrease, so once the last drawn one lies
        # after ``now`` no later height can be confirmed by then.
        while prefix[-1] <= now and len(prefix) <= self.chain.height:
            self._draw_next()
        return bisect.bisect_right(prefix, now) - 1
