"""Extension: unknown membership, partial connectivity, mobility.

The follow-up generalization of the DSN 2003 algorithm (INRIA RR-6088 /
arXiv cs/0701015) is the same core, :class:`repro.core.protocol.TimeFreeDetector`,
over a *learned* membership view (the ``partial`` registry family):

* membership is *learned*: ``known_i`` collects the processes a node has
  ever received a query from (the membership property MP makes this
  well-founded);
* the response quorum becomes ``d - f`` where ``d`` is the network's *range
  density* (the smallest 1-hop neighborhood size), and queries only reach
  1-hop neighbors — suspicion/mistake records *flood* hop by hop;
* correctness needs the network to be **f-covering** ((f+1)-connected);
* mobility support (Algorithm 2) adds a single eviction rule that breaks
  the suspicion ping-pong between a mover and its old neighborhood.

This subpackage holds what is particular to the extension: the
f-covering validators of :mod:`repro.partial.covering`.
"""

from .covering import (
    independent_path_count,
    validate_f_covering,
    validate_f_covering_fast,
    validate_mobility_scenario,
)

__all__ = [
    "independent_path_count",
    "validate_f_covering",
    "validate_f_covering_fast",
    "validate_mobility_scenario",
]
