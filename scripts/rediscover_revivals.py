#!/usr/bin/env python3
"""Rediscover the revival catalog by direct numerical search.

Runs the default scan (walk lengths 2 to 8, both bias angles), which
walks only each row's exact rational family of ramp rates. Prints every
accepted ramp rate as an exact fraction of pi with its completeness
marker and diffs the result against the catalog bundled with the
package. Takes no options; for other domains run `rampwalk search`,
then `rampwalk verify-table` on its output.
"""

import argparse
import json
import sys
import time
from fractions import Fraction

from rampwalk.search import SearchConfig, angle_fraction, scan, verify_table


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    started = time.perf_counter()
    candidates = scan(SearchConfig())
    elapsed = time.perf_counter() - started

    current_row = None
    for candidate in candidates:
        row = (candidate.steps, candidate.theta)
        if row != current_row:
            print(f"\nT = {candidate.steps}, theta = {angle_fraction(candidate.theta)} pi")
            current_row = row
        omega_text = f"{Fraction(*candidate.omega_rational)} pi"
        marker = "complete" if candidate.complete else "incomplete"
        print(f"  omega = {omega_text:>8}   {marker}   residual {candidate.residual:.2e}")

    diff = verify_table(candidates)
    print(f"\n{len(candidates)} revivals found in {elapsed:.2f}s")
    print("catalog match:", "exact" if diff.ok else "MISMATCH")
    if not diff.ok:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    return 0 if diff.ok else 1


if __name__ == "__main__":
    sys.exit(main())
