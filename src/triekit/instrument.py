"""Probe counters used by tests, the CLI and the bench harness.

Structures increment the module-level ``GLOBAL`` instance; callers snapshot
or reset it around the unit they want to measure.  Single-threaded by design.
"""

from dataclasses import dataclass, fields


@dataclass
class ProbeCounters:
    dict_probes: int = 0            # dictionary lookups, static child-array reads and
                                    # level-0 children-map reads
    dict_cell_probes: int = 0       # table cells (level-0 map entries) read by lookups
    static_pred_probes: int = 0     # elementary probes inside static predecessor queries
    static_pred_queries: int = 0    # static predecessor query calls
    dyn_pred_probes: int = 0        # heavy-node predecessor query calls (wexp or bit words)
    wexp_levels_descended: int = 0
    chars_compared: int = 0
    tray_bsearch_steps: int = 0     # child binary-search comparisons in the tray
    splits: int = 0                 # wexp node/container splits
    promotions: int = 0             # fragment promotions in the dynamic trie
    promote_steps: int = 0          # tail-walk children, refiled nodes, wexp weight raises
    rebalance_steps: int = 0        # elementary work inside heavy/light rebalances
    oracle_steps: int = 0           # prepend-tree steps: a node visited walking up, a
                                    # chain write, a letter copied at a split, the new leaf
    pred_steps: int = 0             # dynamic-predecessor work: descent lookups, ascent
                                    # node visits, child keys scanned, predecessor queries

    def reset(self):
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def diff(self, before: dict) -> dict:
        return {k: getattr(self, k) - v for k, v in before.items()}


GLOBAL = ProbeCounters()
