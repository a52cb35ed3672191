"""Two readers of the library's walks shared by the tests; unlike `oracles`, they call the library."""

from rampwalk import evolution
from rampwalk.analysis import classify


def walk(schedule):
    """(distributions, final) of the walk `classify` summarises: pure at visibility 1, dephased below."""
    report = classify(schedule)
    return report.distributions, report.final


def origin_blocks(coins):
    """The blocks (G, 2T + 1, 2, 2) of `evolution._origin_walk(coins)` after its last step."""
    for amps in evolution._origin_walk(coins):
        pass
    return evolution._blocks(amps)
