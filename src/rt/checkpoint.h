#ifndef GRAPE_RT_CHECKPOINT_H_
#define GRAPE_RT_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace grape {

// A rank's checkpoint comes in two parts, because the fragment — nearly
// all of a worker's bytes — cannot change during a batch run while its
// parameter store changes every superstep:
//  - the BASE, the encoded fragment, written once per run (at the first
//    barrier with no complete snapshot behind it);
//  - a ROUND IMAGE per barrier: query, WorkerCore store and app state, and
//    the buffered direct frames. Each round image records the checksum of
//    the base it belongs to, so a restore can never pair it with another
//    run's (or another rank's) fragment.
// Both are blobs in one envelope: magic + version + body + FNV-1a checksum
// over the body, whose first byte says which of the two it is.

/// A worker's round image at a superstep barrier. `state` is the opaque
/// blob produced by WorkerAppServerBase::EncodeCheckpoint (query +
/// WorkerCore store + app state — not the fragment, which is in the base
/// named by `base_checksum`); `pending` are the buffered worker-to-worker
/// direct frames the worker had already received for the *next* round —
/// replaying them is what keeps merge order, and therefore output hashes,
/// bit-identical after recovery.
struct CheckpointImage {
  uint32_t rank = 0;
  uint32_t round = 0;  // superstep count at the barrier
  uint64_t base_checksum = 0;
  std::vector<uint8_t> state;
  struct PendingWireFrame {
    uint32_t from = 0;
    uint32_t tag = 0;
    std::vector<uint8_t> payload;
  };
  std::vector<PendingWireFrame> pending;
};

/// A worker's checkpoint base: its fragment (Fragment::EncodeTo bytes).
/// `checksum` is the base's identity — the FNV-1a of its encoded body —
/// set by EncodeCheckpointBase and DecodeCheckpointBase, and ignored on
/// encode.
struct CheckpointBase {
  uint32_t rank = 0;
  std::vector<uint8_t> fragment;
  uint64_t checksum = 0;
};

/// What validating a blob learns without copying its body.
struct CheckpointBlobInfo {
  uint32_t rank = 0;
  uint32_t round = 0;          // round images only
  uint64_t checksum = 0;       // FNV-1a over the body
  uint64_t base_checksum = 0;  // round images only: the base they belong to
};

/// Encoding and decoding are strict — bad magic, unknown version, the
/// wrong kind of blob, truncation, trailing garbage, or a checksum
/// mismatch all fail with InvalidArgument (Corruption when a length runs
/// off the end) and never return a half-decoded result. The body is
/// checksummed in place before a byte of it is interpreted.
std::vector<uint8_t> EncodeCheckpointImage(const CheckpointImage& image);
Result<CheckpointImage> DecodeCheckpointImage(const uint8_t* data,
                                              size_t size);
/// Sets base->checksum to the encoded blob's identity.
std::vector<uint8_t> EncodeCheckpointBase(CheckpointBase* base);
Result<CheckpointBase> DecodeCheckpointBase(const uint8_t* data, size_t size);

/// The validate-only paths: the same checks as the decoders (checksum plus
/// a structural walk of the body) with no copies, for blobs that are
/// stored still encoded.
Result<CheckpointBlobInfo> ValidateCheckpointImage(const uint8_t* data,
                                                   size_t size);
Result<CheckpointBlobInfo> ValidateCheckpointBase(const uint8_t* data,
                                                  size_t size);

/// InvalidArgument unless `image` is a round image of `base`'s rank taken
/// over exactly that base.
Status CheckImageMatchesBase(const CheckpointImage& image,
                             const CheckpointBase& base);

/// Keeps each rank's base and its round images per (rank, superstep round).
/// Two modes:
///  - in-memory (default): blobs live in the coordinator process; cheap,
///    but lost if rank 0 dies (rank-0 death is out of scope — see README).
///  - disk (`dir` non-empty): PutBase writes `<dir>/grape_ckpt_r<rank>_base.bin`
///    and Put writes `<dir>/grape_ckpt_r<rank>_s<round>.bin`, each via a
///    temp file + atomic rename, so a crash mid-write leaves the previous
///    file intact.
///
/// Both modes retain the TWO most recent rounds per rank and garbage-
/// collect older ones; the base is outside that GC (every round of the run
/// needs it). Two rounds, not one, because a checkpoint barrier can be
/// torn by the very crash it guards against: some workers commit round k
/// while others die before doing so. The last *complete* barrier (k-1 or
/// earlier) must then still be restorable for every rank, so the newest
/// image alone is never trusted — the coordinator's snapshot names the
/// round it wants, and this store still has it.
class CheckpointStore {
 public:
  CheckpointStore() = default;
  explicit CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

  bool disk_backed() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  /// Stores the encoded round image for (`rank`, `round`), dropping all
  /// but the two most recent rounds for that rank. The blob must already
  /// be a valid encoded image (a worker's own fresh encode, or one that
  /// passed CommitBarrier's validation).
  Status Put(uint32_t rank, uint32_t round, std::vector<uint8_t> encoded);
  /// Stores `rank`'s encoded base, replacing any previous one. Same
  /// validity precondition as Put.
  Status PutBase(uint32_t rank, std::vector<uint8_t> encoded);

  /// The coordinator's commit of one rank's barrier output: validates
  /// `base` (empty when this barrier takes none) and `image` — intact
  /// blobs of `rank`, the image of `round`, and the image taken over
  /// `base`, or over the base already stored for the rank when `base` is
  /// empty — and only then stores them. On failure nothing is stored.
  Status CommitBarrier(uint32_t rank, uint32_t round,
                       std::vector<uint8_t> base, std::vector<uint8_t> image);

  /// Loads and decodes the round image for (`rank`, `round`).
  Result<CheckpointImage> Get(uint32_t rank, uint32_t round) const;
  /// Loads and decodes `rank`'s base.
  Result<CheckpointBase> GetBase(uint32_t rank) const;

  /// Loads the raw encoded blob Put/PutBase stored, without decoding —
  /// what an engine inlines into a restore command when the store is
  /// memory-resident and the worker cannot read it from disk.
  Result<std::vector<uint8_t>> GetEncoded(uint32_t rank,
                                          uint32_t round) const;
  Result<std::vector<uint8_t>> GetEncodedBase(uint32_t rank) const;

  bool Has(uint32_t rank, uint32_t round) const;
  bool HasBase(uint32_t rank) const;

  /// Drops all stored blobs (memory) / unlinks every checkpoint file in
  /// the directory, bases included, whoever wrote them (disk) — the
  /// start-of-run reset.
  void Clear();

  /// Total encoded bytes currently resident (memory mode) or written and
  /// not yet garbage-collected by this instance (disk mode), bases
  /// included.
  uint64_t TotalBytes() const;

  std::string PathFor(uint32_t rank, uint32_t round) const;
  std::string BasePathFor(uint32_t rank) const;

 private:
  std::string dir_;
  // memory mode: rank -> round -> encoded image (two newest rounds kept)
  std::map<uint32_t, std::map<uint32_t, std::vector<uint8_t>>> images_;
  // memory mode: rank -> encoded base
  std::map<uint32_t, std::vector<uint8_t>> bases_;
  // both modes: rank -> checksum of the base this instance stored
  std::map<uint32_t, uint64_t> base_checksums_;
  // disk mode bookkeeping for TotalBytes, same keep-two GC as the files
  std::map<uint32_t, std::map<uint32_t, uint64_t>> disk_bytes_;
  std::map<uint32_t, uint64_t> disk_base_bytes_;
};

}  // namespace grape

#endif  // GRAPE_RT_CHECKPOINT_H_
