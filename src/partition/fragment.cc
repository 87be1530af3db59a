#include "partition/fragment.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>

namespace grape {

namespace {

// Fragment wire format (see Fragment::EncodeTo). Versioned so a mixed
// cluster fails loudly instead of misparsing.
constexpr uint32_t kFragmentMagic = 0x47524647;  // "GFRG"
constexpr uint32_t kFragmentVersion = 1;

/// size_t CSR offsets travel as explicit u64s: the wire format must not
/// depend on the host's size_t width.
void EncodeOffsets(Encoder& enc, const std::vector<size_t>& offsets) {
  enc.WriteVarint(offsets.size());
  for (size_t v : offsets) enc.WriteU64(static_cast<uint64_t>(v));
}

Status DecodeOffsets(Decoder& dec, std::vector<size_t>* out) {
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  if (n > dec.Remaining() / sizeof(uint64_t)) {
    return Status::Corruption("offset table extends past end of buffer");
  }
  out->clear();
  out->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t v = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadU64(&v));
    out->push_back(static_cast<size_t>(v));
  }
  return Status::OK();
}

/// FragNeighbor has padding, so adjacency ships as three parallel pod
/// arrays (deterministic bytes, no uninitialized padding on the wire).
void EncodeNeighbors(Encoder& enc, const std::vector<FragNeighbor>& nbrs) {
  enc.WriteVarint(nbrs.size());
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.local);
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.weight);
  for (const FragNeighbor& nb : nbrs) enc.WritePod(nb.label);
}

Status DecodeNeighbors(Decoder& dec, std::vector<FragNeighbor>* out) {
  uint64_t n = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n));
  constexpr size_t kWireBytes =
      sizeof(LocalId) + sizeof(EdgeWeight) + sizeof(Label);
  if (n > dec.Remaining() / kWireBytes) {
    return Status::Corruption("neighbor table extends past end of buffer");
  }
  out->assign(n, FragNeighbor{});
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].local));
  }
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].weight));
  }
  for (uint64_t i = 0; i < n; ++i) {
    GRAPE_RETURN_NOT_OK(dec.ReadPod(&(*out)[i].label));
  }
  return Status::OK();
}

/// One CSR's structural invariants: offsets cover every local vertex,
/// start at zero, never decrease, end exactly at the adjacency size, and
/// every adjacency entry stays inside the local id space.
Status ValidateCsr(const char* what, const std::vector<size_t>& offsets,
                   const std::vector<FragNeighbor>& nbrs, size_t num_local) {
  if (offsets.size() != num_local + 1) {
    return Status::Corruption(std::string(what) + " offsets sized " +
                              std::to_string(offsets.size()) + " for " +
                              std::to_string(num_local) + " local vertices");
  }
  if (offsets.front() != 0 || offsets.back() != nbrs.size()) {
    return Status::Corruption(std::string(what) +
                              " offsets do not frame the adjacency");
  }
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(std::string(what) +
                                " offsets are not monotone");
    }
  }
  for (const FragNeighbor& nb : nbrs) {
    if (nb.local >= num_local) {
      return Status::Corruption(std::string(what) +
                                " adjacency references local id " +
                                std::to_string(nb.local) + " outside " +
                                std::to_string(num_local) + " vertices");
    }
  }
  return Status::OK();
}

/// One arc of a row being patched, keyed by its neighbour's gid. Inner
/// rows are sorted by neighbour gid; outer rows list inner vertices, whose
/// local ids ascend with gid — so gid order is every row's order.
struct GidArc {
  VertexId gid;
  EdgeWeight weight;
  Label label;
};

struct ByGid {
  bool operator()(const GidArc& a, VertexId gid) const { return a.gid < gid; }
  bool operator()(VertexId gid, const GidArc& a) const { return gid < a.gid; }
};

/// A row whose entries a mutation replaced, addressed by its new row id.
template <typename T>
struct PatchedRow {
  LocalId row;
  std::vector<T> entries;
};

/// Writes a `num_rows`-row CSR into (offsets, values): row v takes the
/// entries of the `patched` row naming it (ascending row ids), and
/// otherwise copies old row source_row(v) with every entry passed through
/// `map`. One linear pass; untouched rows keep their exact order.
template <typename T, typename SourceFn, typename MapFn>
void SpliceRows(LocalId num_rows, const std::vector<size_t>& old_offsets,
                const std::vector<T>& old_values,
                const std::vector<PatchedRow<T>>& patched,
                const SourceFn& source_row, const MapFn& map,
                std::vector<size_t>* offsets, std::vector<T>* values) {
  size_t patched_entries = 0;
  for (const PatchedRow<T>& p : patched) patched_entries += p.entries.size();
  offsets->clear();
  offsets->reserve(num_rows + 1);
  offsets->push_back(0);
  values->clear();
  values->reserve(old_values.size() + patched_entries);
  auto p = patched.begin();
  for (LocalId v = 0; v < num_rows; ++v) {
    if (p != patched.end() && p->row == v) {
      values->insert(values->end(), p->entries.begin(), p->entries.end());
      ++p;
    } else {
      const LocalId o = source_row(v);
      const size_t at = values->size();
      values->insert(values->end(), old_values.begin() + old_offsets[o],
                     old_values.begin() + old_offsets[o + 1]);
      for (size_t k = at; k < values->size(); ++k) {
        (*values)[k] = map((*values)[k]);
      }
    }
    offsets->push_back(values->size());
  }
}

}  // namespace

void Fragment::EncodeTo(Encoder& enc) const {
  enc.WriteU32(kFragmentMagic);
  enc.WriteU32(kFragmentVersion);
  enc.WriteU32(fid_);
  enc.WriteU32(num_fragments_);
  enc.WriteU32(total_vertices_);
  enc.WriteU8(directed_ ? 1 : 0);
  enc.WriteU32(num_inner_);
  enc.WriteU32(num_border_);
  enc.WritePodVector(gids_);
  EncodeOffsets(enc, out_offsets_);
  EncodeNeighbors(enc, out_neighbors_);
  if (directed_) {
    EncodeOffsets(enc, in_offsets_);
    EncodeNeighbors(enc, in_neighbors_);
  }
  enc.WritePodVector(labels_);
  enc.WritePodVector(border_);
  EncodeOffsets(enc, mirror_offsets_);
  enc.WritePodVector(mirror_frags_);
  enc.WritePodVector(mirror_dst_lids_);
  enc.WritePodVector(outer_owner_frag_);
  enc.WritePodVector(outer_owner_lid_);
  enc.WritePodVector(*owner_);
  enc.WritePodVector(*owner_lid_);
}

Status Fragment::DecodeFrom(Decoder& dec, Fragment* out) {
  uint32_t magic = 0, version = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&magic));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&version));
  if (magic != kFragmentMagic) {
    return Status::Corruption("not a serialized fragment (bad magic)");
  }
  if (version != kFragmentVersion) {
    return Status::Corruption("fragment wire version " +
                              std::to_string(version) + " (expected " +
                              std::to_string(kFragmentVersion) + ")");
  }

  // Decode into a scratch fragment; `out` is only assigned after every
  // invariant holds, so a corrupt buffer can never be half-accepted.
  Fragment f;
  uint8_t directed = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.fid_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_fragments_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.total_vertices_));
  GRAPE_RETURN_NOT_OK(dec.ReadU8(&directed));
  f.directed_ = directed != 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_inner_));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&f.num_border_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.gids_));
  GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.out_offsets_));
  GRAPE_RETURN_NOT_OK(DecodeNeighbors(dec, &f.out_neighbors_));
  if (f.directed_) {
    GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.in_offsets_));
    GRAPE_RETURN_NOT_OK(DecodeNeighbors(dec, &f.in_neighbors_));
  }
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.labels_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.border_));
  GRAPE_RETURN_NOT_OK(DecodeOffsets(dec, &f.mirror_offsets_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.mirror_frags_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.mirror_dst_lids_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.outer_owner_frag_));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(&f.outer_owner_lid_));
  auto owner = std::make_shared<std::vector<FragmentId>>();
  auto owner_lid = std::make_shared<std::vector<LocalId>>();
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(owner.get()));
  GRAPE_RETURN_NOT_OK(dec.ReadPodVector(owner_lid.get()));
  f.owner_ = std::move(owner);
  f.owner_lid_ = std::move(owner_lid);

  // Structural validation. A decoded fragment is fed straight to app
  // code, so every cross-reference must be in range.
  if (f.num_fragments_ == 0 || f.fid_ >= f.num_fragments_) {
    return Status::Corruption("fragment id " + std::to_string(f.fid_) +
                              " outside a world of " +
                              std::to_string(f.num_fragments_));
  }
  const size_t num_local = f.gids_.size();
  if (f.num_inner_ > num_local) {
    return Status::Corruption("num_inner " + std::to_string(f.num_inner_) +
                              " exceeds " + std::to_string(num_local) +
                              " local vertices");
  }
  for (VertexId gid : f.gids_) {
    if (gid >= f.total_vertices_) {
      return Status::Corruption("fragment lists gid " + std::to_string(gid) +
                                " outside the graph");
    }
  }
  GRAPE_RETURN_NOT_OK(
      ValidateCsr("out", f.out_offsets_, f.out_neighbors_, num_local));
  if (f.directed_) {
    GRAPE_RETURN_NOT_OK(
        ValidateCsr("in", f.in_offsets_, f.in_neighbors_, num_local));
  }
  if (!f.labels_.empty() && f.labels_.size() != num_local) {
    return Status::Corruption("label table sized " +
                              std::to_string(f.labels_.size()) + " for " +
                              std::to_string(num_local) + " vertices");
  }
  if (f.border_.size() != f.num_inner_) {
    return Status::Corruption("border table sized " +
                              std::to_string(f.border_.size()) + " for " +
                              std::to_string(f.num_inner_) +
                              " inner vertices");
  }
  LocalId border_count = 0;
  for (uint8_t b : f.border_) {
    if (b > 1) return Status::Corruption("border flags must be 0/1");
    border_count += b;
  }
  if (border_count != f.num_border_) {
    return Status::Corruption("num_border " + std::to_string(f.num_border_) +
                              " disagrees with " +
                              std::to_string(border_count) +
                              " flagged border vertices");
  }
  if (f.mirror_offsets_.size() != static_cast<size_t>(f.num_inner_) + 1 ||
      f.mirror_offsets_.front() != 0 ||
      f.mirror_offsets_.back() != f.mirror_frags_.size() ||
      f.mirror_frags_.size() != f.mirror_dst_lids_.size()) {
    return Status::Corruption("mirror routing tables do not line up");
  }
  for (size_t i = 0; i + 1 < f.mirror_offsets_.size(); ++i) {
    if (f.mirror_offsets_[i] > f.mirror_offsets_[i + 1]) {
      return Status::Corruption("mirror offsets are not monotone");
    }
  }
  for (FragmentId m : f.mirror_frags_) {
    if (m >= f.num_fragments_) {
      return Status::Corruption("mirror route names fragment " +
                                std::to_string(m) + " outside the world");
    }
  }
  const size_t num_outer = num_local - f.num_inner_;
  if (f.outer_owner_frag_.size() != num_outer ||
      f.outer_owner_lid_.size() != num_outer) {
    return Status::Corruption("outer owner routes sized " +
                              std::to_string(f.outer_owner_frag_.size()) +
                              "/" +
                              std::to_string(f.outer_owner_lid_.size()) +
                              " for " + std::to_string(num_outer) +
                              " outer vertices");
  }
  for (FragmentId o : f.outer_owner_frag_) {
    if (o >= f.num_fragments_) {
      return Status::Corruption("outer owner route names fragment " +
                                std::to_string(o) + " outside the world");
    }
  }
  if (f.owner_->size() != f.total_vertices_ ||
      f.owner_lid_->size() != f.total_vertices_) {
    return Status::Corruption("shared owner tables sized " +
                              std::to_string(f.owner_->size()) + "/" +
                              std::to_string(f.owner_lid_->size()) +
                              " for " + std::to_string(f.total_vertices_) +
                              " vertices");
  }
  for (FragmentId o : *f.owner_) {
    if (o >= f.num_fragments_) {
      return Status::Corruption("owner table names fragment " +
                                std::to_string(o) + " outside the world");
    }
  }

  // Rebuild the gid->lid indexer (insertion order == local id order).
  for (VertexId gid : f.gids_) f.indexer_.GetOrInsert(gid);
  if (f.indexer_.size() != f.gids_.size()) {
    return Status::Corruption("fragment lists a duplicate gid");
  }

  *out = std::move(f);
  return Status::OK();
}

std::vector<LocalId> FragmentBuilder::OwnerLidTable(
    const std::vector<FragmentId>& owner, FragmentId num_fragments) {
  // Inner local ids are positions in each fragment's ascending-gid inner
  // list, so one counting pass over ascending gids yields every vertex's
  // local id at its owner.
  std::vector<LocalId> table(owner.size(), kInvalidLocal);
  std::vector<LocalId> next(num_fragments, 0);
  for (VertexId v = 0; v < owner.size(); ++v) {
    table[v] = next[owner[v]]++;
  }
  return table;
}

Result<Fragment> FragmentBuilder::AssembleLocal(
    const Graph& graph, std::shared_ptr<const std::vector<FragmentId>> owner,
    std::shared_ptr<const std::vector<LocalId>> owner_lid, FragmentId fid,
    FragmentId num_fragments) {
  const VertexId n = graph.num_vertices();
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be positive");
  }
  if (fid >= num_fragments) {
    return Status::InvalidArgument("fragment id outside the world");
  }
  if (!owner || owner->size() != n || !owner_lid || owner_lid->size() != n) {
    return Status::InvalidArgument("owner tables are not sized to the graph");
  }
  const std::vector<FragmentId>& assignment = *owner;

  Fragment frag;
  frag.fid_ = fid;
  frag.num_fragments_ = num_fragments;
  frag.total_vertices_ = n;
  frag.directed_ = graph.is_directed();
  frag.owner_ = owner;
  frag.owner_lid_ = owner_lid;

  // Inner vertices: ascending gid for deterministic local ids.
  std::vector<VertexId> inner;
  for (VertexId v = 0; v < n; ++v) {
    if (assignment[v] == fid) inner.push_back(v);
  }
  frag.num_inner_ = static_cast<LocalId>(inner.size());

  // Outer set, border flags, and mirror lists — all derivable from the
  // in/out rows of this fragment's inner vertices alone (undirected rows
  // carry both directions, so InNeighbors aliasing OutNeighbors is enough):
  //   - outer: foreign endpoints adjacent to the inner set;
  //   - border: inner vertices with at least one foreign neighbor;
  //   - mirrors of inner gid: the owners of its foreign neighbors, i.e.
  //     exactly the fragments holding an outer copy of gid.
  std::unordered_set<VertexId> outer;
  std::vector<std::vector<FragmentId>> mirrors(inner.size());
  frag.border_.assign(frag.num_inner_, 0);
  frag.num_border_ = 0;
  for (size_t i = 0; i < inner.size(); ++i) {
    const VertexId gid = inner[i];
    auto visit = [&](const Neighbor& nb) {
      if (assignment[nb.vertex] == fid) return;
      outer.insert(nb.vertex);
      mirrors[i].push_back(assignment[nb.vertex]);
    };
    for (const Neighbor& nb : graph.OutNeighbors(gid)) visit(nb);
    if (graph.is_directed()) {
      for (const Neighbor& nb : graph.InNeighbors(gid)) visit(nb);
    }
    auto& m = mirrors[i];
    std::sort(m.begin(), m.end());
    m.erase(std::unique(m.begin(), m.end()), m.end());
    if (!m.empty()) {
      frag.border_[i] = 1;
      ++frag.num_border_;
    }
  }

  frag.gids_ = std::move(inner);
  std::vector<VertexId> outer_sorted(outer.begin(), outer.end());
  std::sort(outer_sorted.begin(), outer_sorted.end());
  frag.gids_.insert(frag.gids_.end(), outer_sorted.begin(),
                    outer_sorted.end());
  for (VertexId gid : frag.gids_) frag.indexer_.GetOrInsert(gid);

  const LocalId num_local = frag.num_local();
  const LocalId ni = frag.num_inner_;

  // Local out-CSR. Inner rows: full global out-adjacency. Outer rows:
  // edges from the outer vertex into this fragment's inner set (derived
  // from the in-edges of inner vertices), so apps can navigate both
  // directions across the border.
  frag.out_offsets_.assign(num_local + 1, 0);
  for (LocalId i = 0; i < ni; ++i) {
    frag.out_offsets_[i + 1] = graph.OutDegree(frag.gids_[i]);
  }
  if (graph.is_directed()) {
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
        LocalId src = frag.indexer_.Find(nb.vertex);
        if (src != kInvalidLocal && src >= ni) frag.out_offsets_[src + 1]++;
      }
    }
  } else {
    // Undirected: outer rows list neighbours inside the inner set.
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId other = frag.indexer_.Find(nb.vertex);
        if (other != kInvalidLocal && other >= ni) {
          frag.out_offsets_[other + 1]++;
        }
      }
    }
  }
  for (LocalId i = 0; i < num_local; ++i) {
    frag.out_offsets_[i + 1] += frag.out_offsets_[i];
  }
  frag.out_neighbors_.resize(frag.out_offsets_[num_local]);
  {
    std::vector<size_t> cursor(frag.out_offsets_.begin(),
                               frag.out_offsets_.end() - 1);
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId target = frag.indexer_.Find(nb.vertex);
        frag.out_neighbors_[cursor[i]++] =
            FragNeighbor{target, nb.weight, nb.label};
      }
    }
    if (graph.is_directed()) {
      for (LocalId i = 0; i < ni; ++i) {
        for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
          LocalId src = frag.indexer_.Find(nb.vertex);
          if (src != kInvalidLocal && src >= ni) {
            frag.out_neighbors_[cursor[src]++] =
                FragNeighbor{i, nb.weight, nb.label};
          }
        }
      }
    } else {
      for (LocalId i = 0; i < ni; ++i) {
        for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
          LocalId other = frag.indexer_.Find(nb.vertex);
          if (other != kInvalidLocal && other >= ni) {
            frag.out_neighbors_[cursor[other]++] =
                FragNeighbor{i, nb.weight, nb.label};
          }
        }
      }
    }
  }

  if (graph.is_directed()) {
    // Local in-CSR. Inner rows: full global in-adjacency. Outer rows:
    // in-edges from the inner set (reverse of inner out-edges that cross).
    frag.in_offsets_.assign(num_local + 1, 0);
    for (LocalId i = 0; i < ni; ++i) {
      frag.in_offsets_[i + 1] = graph.InDegree(frag.gids_[i]);
    }
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId dst = frag.indexer_.Find(nb.vertex);
        if (dst != kInvalidLocal && dst >= ni) frag.in_offsets_[dst + 1]++;
      }
    }
    for (LocalId i = 0; i < num_local; ++i) {
      frag.in_offsets_[i + 1] += frag.in_offsets_[i];
    }
    frag.in_neighbors_.resize(frag.in_offsets_[num_local]);
    std::vector<size_t> cursor(frag.in_offsets_.begin(),
                               frag.in_offsets_.end() - 1);
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.InNeighbors(frag.gids_[i])) {
        LocalId source = frag.indexer_.Find(nb.vertex);
        frag.in_neighbors_[cursor[i]++] =
            FragNeighbor{source, nb.weight, nb.label};
      }
    }
    for (LocalId i = 0; i < ni; ++i) {
      for (const Neighbor& nb : graph.OutNeighbors(frag.gids_[i])) {
        LocalId dst = frag.indexer_.Find(nb.vertex);
        if (dst != kInvalidLocal && dst >= ni) {
          frag.in_neighbors_[cursor[dst]++] =
              FragNeighbor{i, nb.weight, nb.label};
        }
      }
    }
  }

  if (graph.has_vertex_labels()) {
    frag.labels_.resize(num_local);
    for (LocalId i = 0; i < num_local; ++i) {
      frag.labels_[i] = graph.vertex_label(frag.gids_[i]);
    }
  }

  frag.mirror_offsets_.assign(ni + 1, 0);
  for (LocalId i = 0; i < ni; ++i) {
    frag.mirror_offsets_[i + 1] = frag.mirror_offsets_[i] + mirrors[i].size();
  }
  frag.mirror_frags_.resize(frag.mirror_offsets_[ni]);
  for (LocalId i = 0; i < ni; ++i) {
    std::copy(mirrors[i].begin(), mirrors[i].end(),
              frag.mirror_frags_.begin() + frag.mirror_offsets_[i]);
  }
  // Destination-local ids are only known to the mirroring fragments;
  // resolved by the exchange half (ApplyMirrorAnswers).
  frag.mirror_dst_lids_.assign(frag.mirror_frags_.size(), kInvalidLocal);

  // Routing plan, part 2: owner routes of this fragment's outer vertices.
  // The owner tables are global, so this needs no other fragment.
  frag.outer_owner_frag_.resize(frag.num_outer());
  frag.outer_owner_lid_.resize(frag.num_outer());
  for (LocalId i = ni; i < num_local; ++i) {
    VertexId gid = frag.gids_[i];
    frag.outer_owner_frag_[i - ni] = assignment[gid];
    frag.outer_owner_lid_[i - ni] = (*owner_lid)[gid];
  }
  return frag;
}

std::vector<std::vector<MirrorLidEntry>> FragmentBuilder::MirrorAnswers(
    const Fragment& frag) {
  std::vector<std::vector<MirrorLidEntry>> answers(frag.num_fragments());
  for (LocalId i = frag.num_inner_; i < frag.num_local(); ++i) {
    answers[frag.outer_owner_frag_[i - frag.num_inner_]].push_back(
        MirrorLidEntry{frag.gids_[i], i});
  }
  return answers;
}

Status FragmentBuilder::ApplyMirrorAnswers(
    Fragment* frag, FragmentId from,
    const std::vector<MirrorLidEntry>& answers) {
  for (const MirrorLidEntry& entry : answers) {
    if (entry.gid >= frag->total_vertices_ ||
        (*frag->owner_)[entry.gid] != frag->fid_) {
      return Status::Corruption("mirror answer for gid " +
                                std::to_string(entry.gid) +
                                " which fragment " +
                                std::to_string(frag->fid_) + " does not own");
    }
    const LocalId i = (*frag->owner_lid_)[entry.gid];
    const auto begin = frag->mirror_frags_.begin() + frag->mirror_offsets_[i];
    const auto end = frag->mirror_frags_.begin() + frag->mirror_offsets_[i + 1];
    const auto it = std::lower_bound(begin, end, from);
    if (it == end || *it != from) {
      return Status::Corruption(
          "fragment " + std::to_string(from) + " answered for gid " +
          std::to_string(entry.gid) + " it is not known to mirror");
    }
    frag->mirror_dst_lids_[it - frag->mirror_frags_.begin()] = entry.lid;
  }
  return Status::OK();
}

Status FragmentBuilder::CheckMirrorsResolved(const Fragment& frag) {
  for (size_t k = 0; k < frag.mirror_dst_lids_.size(); ++k) {
    if (frag.mirror_dst_lids_[k] == kInvalidLocal) {
      return Status::Corruption("fragment " + std::to_string(frag.fid_) +
                                " mirror route " + std::to_string(k) +
                                " (to fragment " +
                                std::to_string(frag.mirror_frags_[k]) +
                                ") was never answered");
    }
  }
  return Status::OK();
}

Result<Fragment> FragmentBuilder::MutateFragment(const Fragment& frag,
                                                 const MutationBatch& batch) {
  GRAPE_RETURN_NOT_OK(batch.Validate(frag.total_vertices_));
  const std::vector<FragmentId>& owner = *frag.owner_;
  const std::vector<LocalId>& owner_lid = *frag.owner_lid_;
  const FragmentId fid = frag.fid_;
  const LocalId ni = frag.num_inner_;
  const bool directed = frag.directed_;
  auto relevant = [&](const EdgeMutation& m) {
    return owner[m.edge.src] == fid || owner[m.edge.dst] == fid;
  };

  // Both endpoints of every op with an inner endpoint; ops between two
  // foreign vertices touch nothing here. Each touched vertex's rows are
  // lifted into gid space: out[k] and (directed) in[k].
  std::vector<VertexId> touched;
  for (const EdgeMutation& m : batch.ops) {
    if (!relevant(m)) continue;
    touched.push_back(m.edge.src);
    touched.push_back(m.edge.dst);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  auto lift = [&](std::span<const FragNeighbor> row) {
    std::vector<GidArc> arcs;
    arcs.reserve(row.size() + 1);
    for (const FragNeighbor& nb : row) {
      arcs.push_back(GidArc{frag.gids_[nb.local], nb.weight, nb.label});
    }
    return arcs;
  };
  std::vector<std::vector<GidArc>> out_rows(touched.size());
  std::vector<std::vector<GidArc>> in_rows(directed ? touched.size() : 0);
  for (size_t k = 0; k < touched.size(); ++k) {
    const LocalId lid = frag.Lid(touched[k]);
    if (lid == kInvalidLocal) continue;
    out_rows[k] = lift(frag.OutNeighbors(lid));
    if (directed) in_rows[k] = lift(frag.InNeighbors(lid));
  }
  auto row_of = [&](VertexId gid, bool in) -> std::vector<GidArc>& {
    const size_t k =
        std::lower_bound(touched.begin(), touched.end(), gid) - touched.begin();
    return in ? in_rows[k] : out_rows[k];
  };

  // The batch in op order. Arc (s, d) lives in s's out-row (keyed d) and
  // d's in-row (keyed s) — undirected: both endpoints' rows — whichever of
  // them is inner or outer, so every op edits exactly those two rows.
  for (const EdgeMutation& m : batch.ops) {
    if (!relevant(m)) continue;
    const Edge& e = m.edge;
    std::vector<GidArc>& a = row_of(e.src, false);
    std::vector<GidArc>& b = row_of(e.dst, directed);
    auto [a_lo, a_hi] = std::equal_range(a.begin(), a.end(), e.dst, ByGid{});
    auto [b_lo, b_hi] = std::equal_range(b.begin(), b.end(), e.src, ByGid{});
    if (m.op == MutationOp::kDeleteEdge) {
      a.erase(a_lo, a_hi);
      b.erase(b_lo, b_hi);
    } else if (a_lo == a_hi && b_lo == b_hi) {
      a.insert(a_lo, GidArc{e.dst, e.weight, e.label});
      b.insert(b_lo, GidArc{e.src, e.weight, e.label});
    } else {
      // Upsert: every matching arc takes the new payload.
      for (auto it = a_lo; it != a_hi; ++it) *it = {e.dst, e.weight, e.label};
      for (auto it = b_lo; it != b_hi; ++it) *it = {e.src, e.weight, e.label};
    }
  }

  // Outer-set changes: a foreign touched vertex is outer iff one of its
  // rows still links it to the inner set.
  std::vector<VertexId> appeared;
  std::vector<LocalId> vanished;  // old lids, ascending
  for (size_t k = 0; k < touched.size(); ++k) {
    if (owner[touched[k]] == fid) continue;
    const bool linked =
        !out_rows[k].empty() || (directed && !in_rows[k].empty());
    const LocalId lid = frag.Lid(touched[k]);
    if (linked && lid == kInvalidLocal) appeared.push_back(touched[k]);
    if (!linked && lid != kInvalidLocal) vanished.push_back(lid);
  }

  Fragment f;
  f.fid_ = fid;
  f.num_fragments_ = frag.num_fragments_;
  f.total_vertices_ = frag.total_vertices_;
  f.directed_ = directed;
  f.num_inner_ = ni;
  f.owner_ = frag.owner_;
  f.owner_lid_ = frag.owner_lid_;

  // old_lid[v]: the row new local id v copies (kInvalidLocal for an
  // appeared outer); remap[o - ni]: old outer o's new local id. Both come
  // from one sorted merge of the surviving old outers with the appeared.
  const bool outers_moved = !appeared.empty() || !vanished.empty();
  std::vector<LocalId> old_lid;
  std::vector<LocalId> remap;
  if (!outers_moved) {
    f.gids_ = frag.gids_;
    f.indexer_ = frag.indexer_;
    f.labels_ = frag.labels_;
    f.outer_owner_frag_ = frag.outer_owner_frag_;
    f.outer_owner_lid_ = frag.outer_owner_lid_;
  } else {
    const LocalId old_local = frag.num_local();
    const size_t num_local = old_local - vanished.size() + appeared.size();
    f.gids_.assign(frag.gids_.begin(), frag.gids_.begin() + ni);
    f.gids_.reserve(num_local);
    old_lid.reserve(num_local);
    remap.assign(old_local - ni, kInvalidLocal);
    auto gone = vanished.begin();
    auto fresh = appeared.begin();
    for (LocalId o = ni; o <= old_local; ++o) {
      const VertexId g = o < old_local ? frag.gids_[o] : frag.total_vertices_;
      for (; fresh != appeared.end() && *fresh < g; ++fresh) {
        f.gids_.push_back(*fresh);
        old_lid.push_back(kInvalidLocal);
      }
      if (o == old_local) break;
      if (gone != vanished.end() && *gone == o) {
        ++gone;
        continue;
      }
      remap[o - ni] = static_cast<LocalId>(f.gids_.size());
      f.gids_.push_back(g);
      old_lid.push_back(o);
    }
    f.indexer_.Reserve(f.gids_.size());
    for (VertexId gid : f.gids_) f.indexer_.GetOrInsert(gid);
    if (!frag.labels_.empty()) {
      // A vertex that first becomes outer here gets label 0: the owner
      // knows the true label, but no engine app reads outer labels.
      f.labels_.assign(frag.labels_.begin(), frag.labels_.begin() + ni);
      for (LocalId o : old_lid) {
        f.labels_.push_back(o == kInvalidLocal ? 0 : frag.labels_[o]);
      }
    }
    f.outer_owner_frag_.reserve(f.num_outer());
    f.outer_owner_lid_.reserve(f.num_outer());
    for (LocalId v = ni; v < f.num_local(); ++v) {
      f.outer_owner_frag_.push_back(owner[f.gids_[v]]);
      f.outer_owner_lid_.push_back(owner_lid[f.gids_[v]]);
    }
  }
  const LocalId num_local = f.num_local();
  auto source_row = [&](LocalId v) {
    return v < ni || !outers_moved ? v : old_lid[v - ni];
  };
  auto to_new = [&](LocalId local) {
    return local < ni || !outers_moved ? local : remap[local - ni];
  };

  // The touched rows that survive, by new local id, back in local space.
  std::vector<PatchedRow<FragNeighbor>> out_patch, in_patch;
  std::vector<PatchedRow<FragmentId>> mirror_patch;
  for (size_t k = 0; k < touched.size(); ++k) {
    const VertexId g = touched[k];
    const bool inner = owner[g] == fid;
    const LocalId v = inner ? owner_lid[g] : f.indexer_.Find(g);
    if (v == kInvalidLocal) continue;  // vanished outer
    auto lower = [&](const std::vector<GidArc>& arcs) {
      std::vector<FragNeighbor> row;
      row.reserve(arcs.size());
      for (const GidArc& arc : arcs) {
        const LocalId local = owner[arc.gid] == fid ? owner_lid[arc.gid]
                                                    : f.indexer_.Find(arc.gid);
        row.push_back(FragNeighbor{local, arc.weight, arc.label});
      }
      return row;
    };
    out_patch.push_back({v, lower(out_rows[k])});
    if (directed) in_patch.push_back({v, lower(in_rows[k])});
    if (!inner) continue;
    // Border flag and mirror list of a touched inner vertex: the owners
    // of its foreign neighbours, from its patched rows alone.
    std::vector<FragmentId> mirrors;
    auto visit = [&](const std::vector<GidArc>& arcs) {
      for (const GidArc& arc : arcs) {
        if (owner[arc.gid] != fid) mirrors.push_back(owner[arc.gid]);
      }
    };
    visit(out_rows[k]);
    if (directed) visit(in_rows[k]);
    std::sort(mirrors.begin(), mirrors.end());
    mirrors.erase(std::unique(mirrors.begin(), mirrors.end()), mirrors.end());
    mirror_patch.push_back({v, std::move(mirrors)});
  }
  auto by_row = [](const auto& x, const auto& y) { return x.row < y.row; };
  std::sort(out_patch.begin(), out_patch.end(), by_row);
  std::sort(in_patch.begin(), in_patch.end(), by_row);
  // mirror_patch is already in inner-lid order: touched is gid-sorted.

  auto move_arc = [&](FragNeighbor nb) {
    nb.local = to_new(nb.local);
    return nb;
  };
  SpliceRows(num_local, frag.out_offsets_, frag.out_neighbors_, out_patch,
             source_row, move_arc, &f.out_offsets_, &f.out_neighbors_);
  if (directed) {
    SpliceRows(num_local, frag.in_offsets_, frag.in_neighbors_, in_patch,
               source_row, move_arc, &f.in_offsets_, &f.in_neighbors_);
  }

  SpliceRows(
      ni, frag.mirror_offsets_, frag.mirror_frags_, mirror_patch,
      [](LocalId v) { return v; }, [](FragmentId m) { return m; },
      &f.mirror_offsets_, &f.mirror_frags_);
  // Destination-local ids are re-resolved by the peer exchange, exactly
  // as after a build.
  f.mirror_dst_lids_.assign(f.mirror_frags_.size(), kInvalidLocal);
  f.border_ = frag.border_;
  f.num_border_ = frag.num_border_;
  for (const PatchedRow<FragmentId>& p : mirror_patch) {
    const uint8_t border = p.entries.empty() ? 0 : 1;
    f.num_border_ = f.num_border_ - f.border_[p.row] + border;
    f.border_[p.row] = border;
  }
  return f;
}

Status FragmentBuilder::MutateFragmentedGraph(FragmentedGraph* fg,
                                              const MutationBatch& batch) {
  const FragmentId n = fg->num_fragments();
  std::vector<Fragment> rebuilt;
  rebuilt.reserve(n);
  for (const Fragment& frag : fg->fragments) {
    auto f = MutateFragment(frag, batch);
    if (!f.ok()) return f.status();
    rebuilt.push_back(std::move(f).value());
  }
  for (FragmentId m = 0; m < n; ++m) {
    auto answers = MirrorAnswers(rebuilt[m]);
    for (FragmentId f = 0; f < n; ++f) {
      if (f == m) continue;
      GRAPE_RETURN_NOT_OK(ApplyMirrorAnswers(&rebuilt[f], m, answers[f]));
    }
  }
  for (const Fragment& frag : rebuilt) {
    GRAPE_RETURN_NOT_OK(CheckMirrorsResolved(frag));
  }
  // Element-wise: the vector's buffer (and thus each Fragment's address)
  // must survive — engines hold `const Fragment*` into it across queries.
  for (FragmentId f = 0; f < n; ++f) {
    fg->fragments[f] = std::move(rebuilt[f]);
  }
  return Status::OK();
}

Result<FragmentedGraph> FragmentBuilder::Build(
    const Graph& graph, const std::vector<FragmentId>& assignment,
    FragmentId num_fragments) {
  const VertexId n = graph.num_vertices();
  if (assignment.size() != n) {
    return Status::InvalidArgument("assignment size != vertex count");
  }
  if (num_fragments == 0) {
    return Status::InvalidArgument("num_fragments must be positive");
  }
  for (FragmentId f : assignment) {
    if (f >= num_fragments) {
      return Status::InvalidArgument("assignment references unknown fragment");
    }
  }

  FragmentedGraph out;
  out.directed = graph.is_directed();
  out.total_vertices = n;
  out.owner = std::make_shared<const std::vector<FragmentId>>(assignment);
  out.owner_lid = std::make_shared<const std::vector<LocalId>>(
      OwnerLidTable(assignment, num_fragments));

  // The coordinator path is the distributed protocol run in one process:
  // assemble every fragment locally against the whole graph, then exchange
  // the mirror-placement answers that finish the routing plan. Running on
  // the same halves is what keeps the two paths bit-identical.
  out.fragments.reserve(num_fragments);
  for (FragmentId f = 0; f < num_fragments; ++f) {
    auto frag =
        AssembleLocal(graph, out.owner, out.owner_lid, f, num_fragments);
    if (!frag.ok()) return frag.status();
    out.fragments.push_back(std::move(frag).value());
  }
  for (FragmentId m = 0; m < num_fragments; ++m) {
    auto answers = MirrorAnswers(out.fragments[m]);
    for (FragmentId f = 0; f < num_fragments; ++f) {
      if (f == m) continue;
      GRAPE_RETURN_NOT_OK(
          ApplyMirrorAnswers(&out.fragments[f], m, answers[f]));
    }
  }
  for (const Fragment& frag : out.fragments) {
    GRAPE_RETURN_NOT_OK(CheckMirrorsResolved(frag));
  }
  return out;
}

}  // namespace grape
