"""Host-speed scaling of the benchmark's times.

The shared 2-vCPU host this benchmark was written on changes speed by 10 to
30 % over seconds to minutes, and the CPU time charged to a process changes
with it.  So a sample also times a calibration piece: a fixed amount of
pure-Python work that calls nothing in knpair.  Pieces run before and after
every query, every ``TICK_S`` inside long queries (from SIGALRM), before the
import and between the fields of the setup; their own time is left out of
every timed interval.  A time is
scaled by ``REF_PIECE_S`` over the duration of the pieces around it, which
gives seconds on a host where one piece takes ``REF_PIECE_S``.  A change to
knpair moves the scaled time as it moves the raw one; a change of host speed
moves the pieces as well and cancels.

On that host, over 150 to 180 s of repeated passes through one plan, the
quartile distance over the median of the pass times was 16 % raw and 4 %
scaled for ``count``; for ``scan`` it was 9 % raw, 6 % scaled with pieces
between queries only and 3 % with the ticks as well.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field

# one piece takes about this long on the 2.1 GHz Xeon VM the benchmark was written on
REF_PIECE_S = 0.005
PIECE_ROUNDS = 20
# pieces timed before the import, for the setup's scale
SETUP_PIECES = 3
# a query of several seconds gets a piece this often, not only at its ends
TICK_S = 0.1


def _work() -> int:
    """The calibration work: schoolbook products of two integer lists mod p."""
    p = 10007
    a = list(range(1, 41))
    b = list(range(7, 47))
    last = {}
    for r in range(PIECE_ROUNDS):
        out = [0] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        last[r % 17] = out[r % 79]
    return len(last)


@dataclass
class Meter:
    """Calibration pieces of one process: (wall start, wall end, cpu start, cpu end)."""

    pieces: list = field(default_factory=list)
    busy: bool = False

    def piece(self) -> None:
        if self.busy:  # a tick that fires inside a piece is dropped
            return
        self.busy = True
        w0, c0 = time.perf_counter(), time.process_time()
        _work()
        self.pieces.append((w0, time.perf_counter(), c0, time.process_time()))
        self.busy = False

    def ticks_on(self) -> None:
        """Also time a piece every TICK_S of wall time, until ticks_off()."""
        signal.signal(signal.SIGALRM, lambda signum, frame: self.piece())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def ticks_off(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def block(self) -> None:
        """SETUP_PIECES pieces in a row."""
        for _ in range(SETUP_PIECES):
            self.piece()

    def piece_s(self) -> float:
        """Wall time of every piece so far."""
        return sum(w1 - w0 for w0, w1, _, _ in self.pieces)

    def scale(self) -> float:
        """REF_PIECE_S over the median wall time of every piece so far."""
        return REF_PIECE_S / statistics.median(w1 - w0 for w0, w1, _, _ in self.pieces)

    def gaps(self, first: int) -> dict:
        """Raw and scaled wall and CPU time of the gaps between consecutive
        pieces from index ``first`` on; each gap is scaled by the mean of the
        two pieces around it."""
        out = {"raw_wall_s": 0.0, "raw_cpu_s": 0.0, "wall_s": 0.0, "cpu_s": 0.0}
        run = self.pieces[first:]
        for (aw0, aw1, ac0, ac1), (bw0, bw1, bc0, bc1) in zip(run, run[1:]):
            wall, cpu = bw0 - aw1, bc0 - ac1
            out["raw_wall_s"] += wall
            out["raw_cpu_s"] += cpu
            out["wall_s"] += wall * 2 * REF_PIECE_S / (aw1 - aw0 + bw1 - bw0)
            out["cpu_s"] += cpu * 2 * REF_PIECE_S / (ac1 - ac0 + bc1 - bc0)
        return out
