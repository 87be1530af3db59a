#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/common.h"

namespace perfbench {

/// grape_serve's own configuration: a weighted road grid, metis partition,
/// coordinator load, socket transport, 2 ms batching window; rounds of
/// SSSP:BFS point reads at 3:1 in a closed and an open loop, then writes.
void RunServeRoad(const RunConfig& cfg, Report* report);

/// One-shot analytics on a fresh tcp world: DistributedLoad of an RMAT
/// edge list, then a fixed PageRank / checkpointed PageRank / CC / SSSP /
/// BFS suite, then incremental CC maintenance under mutation batches.
void RunBatchRmat(const RunConfig& cfg, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
