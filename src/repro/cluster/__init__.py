"""Multi-node cluster simulation for the speedup/scaleup experiments.

The paper runs PolyFrame against AsterixDB, MongoDB, and Greenplum clusters
of 1-4 EC2 nodes.  Here a cluster is N embedded engine instances ("nodes"),
each holding a hash/round-robin shard of the data.  A query is executed on
every shard and the partial results are merged by a query-aware combiner
(sum of counts, min of mins, group-merge, ordered top-k merge, and
partial-state finalization for AVG/STDDEV) — the same scatter-gather
structure a real shared-nothing cluster uses.  There is one coordinator
(:func:`~repro.cluster.base.scatter_gather`) and one cluster skeleton
(:class:`~repro.cluster.base.ShardedCluster`); the three backend
clusters add only their engine factory and backend-named verbs.

**Dispatch & timing model**: *how* the per-shard queries run is a
pluggable :class:`~repro.cluster.dispatch.Dispatcher` (``dispatch=``
kwarg / ``REPRO_DISPATCH`` env).  The default ``serial`` dispatcher runs
shards sequentially in-process and reports a *simulated* parallel wall
time, ``max(per-shard elapsed) + merge time`` — the wall time an N-node
cluster would observe with perfectly parallel shards, and the quantity
the speedup/scaleup *shapes* in Figures 9 and 10 derive from.  The
``threads`` dispatcher runs shards genuinely concurrently on a bounded
worker pool and reports *measured* dispatch wall time instead (the
engines sleep through their simulated prep overhead, releasing the GIL,
so shard-level parallelism is real).  See
``docs/distributed-execution.md``.

Every cluster can run replicated (``replication_factor=R``): each shard
is placed on R nodes by chained declustering
(:class:`~repro.cluster.replica.ReplicaSet`), shard reads fail over
between replicas, slow attempts are hedged, and reads can be
quorum-checked — see ``docs/resilience.md``.  The default R=1 keeps the
seed's single-copy behaviour; ``REPRO_REPLICATION`` raises it
process-wide.

Neo4j has no cluster wrapper: the community edition does not support
sharded clusters, so the paper (and this reproduction) excludes it.
MongoDB's ``$lookup`` refuses to run against data sharded over more than
one node (expression 12), also as in the paper.
"""

from repro.cluster.asterixdb_cluster import AsterixDBCluster
from repro.cluster.dispatch import (
    DISPATCHERS,
    Dispatcher,
    SerialDispatcher,
    ThreadPoolDispatcher,
)
from repro.cluster.greenplum import GreenplumCluster
from repro.cluster.mongo_cluster import MongoDBCluster
from repro.cluster.replica import (
    HedgePolicy,
    NodeHealth,
    NodeHealthBoard,
    ReplicaSet,
    ReplicaStore,
    records_checksum,
)

__all__ = [
    "DISPATCHERS",
    "AsterixDBCluster",
    "Dispatcher",
    "GreenplumCluster",
    "HedgePolicy",
    "MongoDBCluster",
    "NodeHealth",
    "NodeHealthBoard",
    "ReplicaSet",
    "ReplicaStore",
    "SerialDispatcher",
    "ThreadPoolDispatcher",
    "records_checksum",
]
