#!/usr/bin/env python3
"""Walk the two flagship revival points and show what the noise does.

Prints the per-step origin probability for the 16-step unbiased walk at
ramp pi/8, the final coin state of the 8-step biased walk at ramp
pi/10, and the return-probability ladder under coin dephasing.
"""

import math
import sys

from rampwalk.analysis import classify
from rampwalk.evolution import WalkSchedule, bisect_visibility


def main() -> int:
    print("unbiased walk, ramp pi/8, 16 steps")
    report = classify(WalkSchedule(0.0, math.pi / 8, 16))
    for t, p0 in enumerate(report.distributions.at_site(0)[1:].tolist(), start=1):
        bar = "#" * round(40 * p0)
        print(f"  t = {t:2d}  p0 = {p0:8.6f}  {bar}")

    print("\nbiased walk (theta pi/4), ramp pi/10, 8 steps")
    report = classify(WalkSchedule(math.pi / 4, math.pi / 10, 8))
    amplitudes = report.final.amplitudes  # on the sites -8..8, the origin in the middle
    plus, minus = amplitudes[len(amplitudes) // 2]
    print(f"  revival: {report.is_revival}, complete: {report.is_complete}")
    print(f"  final coin state: ({plus:.6f}) |plus> + ({minus:.6f}) |minus>")
    print(f"  overlap with initial coin:   {report.overlap_initial:.6f}")
    print(f"  overlap with predicted coin: {report.overlap_predicted:.6f}")

    print("\ncoin dephasing at the 8-step unbiased revival (ramp pi/8)")
    schedule = WalkSchedule(0.0, math.pi / 8, 8)
    for visibility in (1.0, 0.996, 0.99, 0.95, 0.9):
        p0 = classify(schedule.with_visibility(visibility)).origin_probability
        print(f"  visibility {visibility:5.3f}  ->  p0(8) = {p0:.6f}")
    target = 0.918
    visibility, achieved = bisect_visibility(schedule, target)
    print(f"  visibility {visibility:.5f} reproduces p0(8) = {achieved:.5f} "
          f"(target {target})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
