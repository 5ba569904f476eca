"""Reference snapshot reduce: the oracle the incremental plane is
checked against.

:meth:`repro.runtime.sharded.ShardedRunner.merged_snapshot` serves
snapshots through a memoized merge tree over ``Sketch.clone()`` leaf
copies.  This module rebuilds the same snapshot the slow, obviously
correct way — a fresh exact copy of every shard, reduced from scratch
— so the equivalence sweep (``tests/test_snapshot_plane.py``) and the
refresh benchmark (``benchmarks/bench_snapshot.py``) share one
definition of the expected answer.
"""

from __future__ import annotations

import copy
from typing import Iterable

from repro.state.algorithm import Sketch


def copy_shard(shard: Sketch) -> Sketch:
    """An exact private copy of a shard (payload, audit, RNG).

    Serializable families round-trip through ``to_state`` /
    ``from_state`` — the exactness contract the checkpoint and
    process-executor tests pin down, which also drops any attached
    write listeners.  Families without the state hooks are deep-copied
    instead; both routes leave the original untouched.
    """
    if type(shard)._config_state is not Sketch._config_state:
        return type(shard).from_state(shard.to_state())
    return copy.deepcopy(shard)


def reference_snapshot(shards: Iterable[Sketch]) -> Sketch:
    """Copy every shard and reduce the copies in a pairwise tree.

    Each level merges neighbours ``(0, 1), (2, 3), ...``; an odd last
    node is carried up unmerged.  The shape matters: Misra-Gries and
    SpaceSaving merges are not associative, so this is the exact tree
    :meth:`~repro.runtime.sharded.ShardedRunner.merge` builds.
    """
    level = [copy_shard(shard) for shard in shards]
    while len(level) > 1:
        merged = [
            level[i].merge(level[i + 1])
            for i in range(0, len(level) - 1, 2)
        ]
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]
