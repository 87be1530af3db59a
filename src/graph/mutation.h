#ifndef GRAPE_GRAPH_MUTATION_H_
#define GRAPE_GRAPH_MUTATION_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/result.h"
#include "util/serializer.h"
#include "util/status.h"

namespace grape {

/// One streaming update ΔG: insert (upsert) or delete an edge. The batch
/// is the paper's M in Q(G ⊕ M) — IncEval answers under it with work
/// proportional to the region it touches (Sec. 2.1).
enum class MutationOp : uint8_t {
  kInsertEdge = 0,
  kDeleteEdge = 1,
};

struct EdgeMutation {
  MutationOp op = MutationOp::kInsertEdge;
  Edge edge;
};

/// True when `e` connects (src, dst); undirected graphs match either
/// orientation. Weight and label never participate in matching — they are
/// the payload an upsert replaces.
inline bool EdgeConnects(const Edge& e, VertexId src, VertexId dst,
                         bool directed) {
  if (e.src == src && e.dst == dst) return true;
  return !directed && e.src == dst && e.dst == src;
}

/// An ordered batch of edge mutations, the wire unit of the streaming
/// update path (kTagSvMutate / kTagWkMutate). Semantics, shared by the
/// whole-graph oracle (ApplyMutationsToEdges) and the fragment patch
/// (FragmentBuilder::MutateFragment) on the coordinator and inside worker
/// endpoints:
///
///   - insert is an UPSERT: if an edge with the same endpoints exists
///     (either orientation when undirected) its weight/label are replaced
///     in place; otherwise the edge is appended. This keeps graphs simple,
///     which keeps CSR adjacency order — sorted by target id — unique and
///     therefore bit-reproducible across rebuilds.
///   - delete removes every edge matching the endpoints; deleting an
///     absent edge is a no-op.
///   - the vertex set is fixed: endpoints must name existing vertices
///     (the owner routing tables are immutable), and self-loops are
///     rejected (an undirected self-loop would double on every rebuild).
struct MutationBatch {
  std::vector<EdgeMutation> ops;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }

  void InsertEdge(VertexId src, VertexId dst, EdgeWeight weight = 1.0,
                  Label label = 0) {
    ops.push_back(EdgeMutation{MutationOp::kInsertEdge,
                               Edge{src, dst, weight, label}});
  }
  void DeleteEdge(VertexId src, VertexId dst) {
    ops.push_back(
        EdgeMutation{MutationOp::kDeleteEdge, Edge{src, dst, 0.0, 0}});
  }

  bool has_deletions() const {
    for (const EdgeMutation& m : ops) {
      if (m.op == MutationOp::kDeleteEdge) return true;
    }
    return false;
  }

  /// Sorted unique endpoints of every op — the seed set of the incremental
  /// run (IncEval's initial M_i is the lids of these vertices).
  std::vector<VertexId> TouchedVertices() const {
    std::vector<VertexId> touched;
    touched.reserve(ops.size() * 2);
    for (const EdgeMutation& m : ops) {
      touched.push_back(m.edge.src);
      touched.push_back(m.edge.dst);
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    return touched;
  }

  Status Validate(VertexId num_vertices) const {
    for (const EdgeMutation& m : ops) {
      if (m.op != MutationOp::kInsertEdge &&
          m.op != MutationOp::kDeleteEdge) {
        return Status::InvalidArgument("unknown mutation op");
      }
      if (m.edge.src >= num_vertices || m.edge.dst >= num_vertices) {
        return Status::InvalidArgument(
            "mutation endpoint " +
            std::to_string(std::max(m.edge.src, m.edge.dst)) +
            " outside the fixed vertex set [0, " +
            std::to_string(num_vertices) + ")");
      }
      if (m.edge.src == m.edge.dst) {
        return Status::InvalidArgument("self-loop mutations are not supported");
      }
    }
    return Status::OK();
  }

  void EncodeTo(Encoder& enc) const {
    enc.WriteVarint(ops.size());
    for (const EdgeMutation& m : ops) {
      enc.WriteU8(static_cast<uint8_t>(m.op));
      enc.WriteU32(m.edge.src);
      enc.WriteU32(m.edge.dst);
      enc.WriteDouble(m.edge.weight);
      enc.WriteU32(m.edge.label);
    }
  }

  static Status DecodeFrom(Decoder& dec, MutationBatch* out) {
    uint64_t n = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
    // Each op occupies at least 17 payload bytes; reject corrupt counts
    // before reserve() can throw.
    if (n > dec.Remaining() / 17) {
      return Status::Corruption("mutation batch extends past end of buffer");
    }
    out->ops.clear();
    out->ops.reserve(n);
    for (uint64_t k = 0; k < n; ++k) {
      uint8_t op = 0;
      EdgeMutation m;
      GRAPE_RETURN_NOT_OK(dec.ReadU8(&op));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&m.edge.src));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&m.edge.dst));
      GRAPE_RETURN_NOT_OK(dec.ReadDouble(&m.edge.weight));
      GRAPE_RETURN_NOT_OK(dec.ReadU32(&m.edge.label));
      if (op > static_cast<uint8_t>(MutationOp::kDeleteEdge)) {
        return Status::Corruption("unknown mutation op on the wire");
      }
      m.op = static_cast<MutationOp>(op);
      out->ops.push_back(m);
    }
    return Status::OK();
  }
};

/// Applies `batch` in order to a materialized edge list: the whole-graph
/// oracle's step. Linear scans per op — the oracle favours obviousness;
/// fragments patch only the rows a batch touches
/// (FragmentBuilder::MutateFragment) under the same semantics.
inline void ApplyMutationsToEdges(std::vector<Edge>* edges,
                                  const MutationBatch& batch, bool directed) {
  for (const EdgeMutation& m : batch.ops) {
    if (m.op == MutationOp::kInsertEdge) {
      bool matched = false;
      for (Edge& e : *edges) {
        if (EdgeConnects(e, m.edge.src, m.edge.dst, directed)) {
          e.weight = m.edge.weight;
          e.label = m.edge.label;
          matched = true;
        }
      }
      if (!matched) edges->push_back(m.edge);
    } else {
      std::erase_if(*edges, [&](const Edge& e) {
        return EdgeConnects(e, m.edge.src, m.edge.dst, directed);
      });
    }
  }
}

/// G ⊕ M over a whole graph: the coordinator-side (and oracle) mutation
/// path. Rebuilds the CSR from the mutated edge list, preserving
/// directedness, the exact vertex count, and vertex labels.
inline Result<Graph> ApplyMutations(const Graph& graph,
                                    const MutationBatch& batch) {
  GRAPE_RETURN_NOT_OK(batch.Validate(graph.num_vertices()));
  std::vector<Edge> edges = graph.ToEdgeList();
  ApplyMutationsToEdges(&edges, batch, graph.is_directed());
  GraphBuilder builder(graph.is_directed());
  builder.ReserveEdges(edges.size());
  for (const Edge& e : edges) builder.AddEdge(e);
  if (graph.has_vertex_labels()) {
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      builder.SetVertexLabel(v, graph.vertex_label(v));
    }
  }
  if (graph.num_vertices() > 0) builder.AddVertex(graph.num_vertices() - 1);
  return std::move(builder).Build(graph.num_vertices());
}

}  // namespace grape

#endif  // GRAPE_GRAPH_MUTATION_H_
