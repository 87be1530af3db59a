#include "rt/checkpoint.h"

#include <dirent.h>
#include <fcntl.h>
#include <stdio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/logging.h"
#include "util/serializer.h"

namespace grape {

namespace {

constexpr uint32_t kCkptMagic = 0x504b4347;  // "GCKP" little-endian
constexpr uint32_t kCkptVersion = 2;
// First body byte: which of the two blobs this is.
constexpr uint8_t kBlobRound = 1;
constexpr uint8_t kBlobBase = 2;

uint64_t Fnv1a(const uint8_t* data, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Opens a blob in `enc`: the envelope head for a body of `body_len`
/// bytes, with room reserved for the whole blob so the body is written
/// straight in (no intermediate body buffer to copy). Returns where the
/// body starts.
size_t BeginBlob(Encoder& enc, uint64_t body_len) {
  enc.Reserve(2 * sizeof(uint32_t) + VarintSize(body_len) + body_len +
              sizeof(uint64_t));
  enc.WriteU32(kCkptMagic);
  enc.WriteU32(kCkptVersion);
  enc.WriteVarint(body_len);
  return enc.size();
}

/// Closes a blob whose body was written from `body_at`: appends the body's
/// FNV-1a, which it returns.
uint64_t EndBlob(Encoder& enc, size_t body_at, uint64_t body_len) {
  GRAPE_CHECK(enc.size() - body_at == body_len)
      << "checkpoint blob body is " << enc.size() - body_at
      << " bytes, its envelope says " << body_len;
  const uint64_t sum = Fnv1a(enc.buffer().data() + body_at, body_len);
  enc.WriteU64(sum);
  return sum;
}

/// A blob's body past its kind byte, checksummed but not yet interpreted.
struct BlobBody {
  const uint8_t* data = nullptr;
  size_t size = 0;
  uint64_t checksum = 0;
};

/// Checks the envelope of a `kind` blob and verifies the body checksum in
/// place BEFORE a single body byte is interpreted — a corrupt blob must
/// never yield a half-decoded result.
Result<BlobBody> OpenEnvelope(const uint8_t* data, size_t size, uint8_t kind,
                              const std::string& what) {
  Decoder dec(data, size);
  uint32_t magic = 0, version = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&magic));
  if (magic != kCkptMagic) return Status::InvalidArgument(what + ": bad magic");
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&version));
  if (version != kCkptVersion) {
    return Status::InvalidArgument(what + ": unsupported version " +
                                   std::to_string(version));
  }
  uint64_t body_len = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&body_len));
  if (body_len > dec.Remaining()) {
    return Status::InvalidArgument(what + ": truncated body");
  }
  const uint8_t* body = data + dec.position();
  GRAPE_RETURN_NOT_OK(dec.Skip(body_len));
  uint64_t checksum = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadU64(&checksum));
  if (!dec.AtEnd()) return Status::InvalidArgument(what + ": trailing bytes");
  if (Fnv1a(body, body_len) != checksum) {
    return Status::InvalidArgument(what + ": checksum mismatch");
  }
  if (body_len == 0 || body[0] != kind) {
    return Status::InvalidArgument(what + ": wrong kind of checkpoint blob");
  }
  return BlobBody{body + 1, static_cast<size_t>(body_len - 1), checksum};
}

/// Walks a round image body. With `out` it decodes (copying the state and
/// frame payloads); without, it only steps over them — the same checks
/// either way, so validation and decoding cannot disagree.
Status WalkImageBody(const BlobBody& body, CheckpointBlobInfo* info,
                     CheckpointImage* out) {
  Decoder dec(body.data, body.size);
  info->checksum = body.checksum;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&info->rank));
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&info->round));
  GRAPE_RETURN_NOT_OK(dec.ReadU64(&info->base_checksum));
  uint64_t state_len = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&state_len));
  if (state_len > dec.Remaining()) {
    return Status::InvalidArgument("checkpoint image: truncated state");
  }
  if (out != nullptr) {
    out->state.resize(state_len);
    GRAPE_RETURN_NOT_OK(dec.ReadPodSpan(out->state.data(), state_len));
  } else {
    GRAPE_RETURN_NOT_OK(dec.Skip(state_len));
  }
  uint64_t n_frames = 0;
  GRAPE_RETURN_NOT_OK(dec.ReadVarint(&n_frames));
  if (n_frames > dec.Remaining()) {
    return Status::InvalidArgument("checkpoint image: frame count overflow");
  }
  if (out != nullptr) out->pending.reserve(n_frames);
  for (uint64_t i = 0; i < n_frames; ++i) {
    CheckpointImage::PendingWireFrame frame;
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&frame.from));
    GRAPE_RETURN_NOT_OK(dec.ReadU32(&frame.tag));
    uint64_t len = 0;
    GRAPE_RETURN_NOT_OK(dec.ReadVarint(&len));
    if (len > dec.Remaining()) {
      return Status::InvalidArgument("checkpoint image: truncated frame");
    }
    if (out == nullptr) {
      GRAPE_RETURN_NOT_OK(dec.Skip(len));
      continue;
    }
    frame.payload.resize(len);
    GRAPE_RETURN_NOT_OK(dec.ReadPodSpan(frame.payload.data(), len));
    out->pending.push_back(std::move(frame));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("checkpoint image: trailing body bytes");
  }
  if (out != nullptr) {
    out->rank = info->rank;
    out->round = info->round;
    out->base_checksum = info->base_checksum;
  }
  return Status::OK();
}

/// The checksum trailer of a blob that is known to be valid.
uint64_t TrailerChecksum(const std::vector<uint8_t>& encoded) {
  uint64_t sum = 0;
  if (encoded.size() >= sizeof(sum)) {
    std::memcpy(&sum, encoded.data() + encoded.size() - sizeof(sum),
                sizeof(sum));
  }
  return sum;
}

}  // namespace

std::vector<uint8_t> EncodeCheckpointImage(const CheckpointImage& image) {
  uint64_t body_len = 1 + 2 * sizeof(uint32_t) + sizeof(uint64_t) +
                      VarintSize(image.state.size()) + image.state.size() +
                      VarintSize(image.pending.size());
  for (const auto& frame : image.pending) {
    body_len += 2 * sizeof(uint32_t) + VarintSize(frame.payload.size()) +
                frame.payload.size();
  }
  Encoder enc;
  const size_t body_at = BeginBlob(enc, body_len);
  enc.WriteU8(kBlobRound);
  enc.WriteU32(image.rank);
  enc.WriteU32(image.round);
  enc.WriteU64(image.base_checksum);
  enc.WriteVarint(image.state.size());
  enc.WritePodSpan(image.state.data(), image.state.size());
  enc.WriteVarint(image.pending.size());
  for (const auto& frame : image.pending) {
    enc.WriteU32(frame.from);
    enc.WriteU32(frame.tag);
    enc.WriteVarint(frame.payload.size());
    enc.WritePodSpan(frame.payload.data(), frame.payload.size());
  }
  EndBlob(enc, body_at, body_len);
  return enc.TakeBuffer();
}

Result<CheckpointImage> DecodeCheckpointImage(const uint8_t* data,
                                              size_t size) {
  GRAPE_ASSIGN_OR_RETURN(BlobBody body, OpenEnvelope(data, size, kBlobRound,
                                                     "checkpoint image"));
  CheckpointBlobInfo info;
  CheckpointImage image;
  GRAPE_RETURN_NOT_OK(WalkImageBody(body, &info, &image));
  return image;
}

Result<CheckpointBlobInfo> ValidateCheckpointImage(const uint8_t* data,
                                                   size_t size) {
  GRAPE_ASSIGN_OR_RETURN(BlobBody body, OpenEnvelope(data, size, kBlobRound,
                                                     "checkpoint image"));
  CheckpointBlobInfo info;
  GRAPE_RETURN_NOT_OK(WalkImageBody(body, &info, nullptr));
  return info;
}

std::vector<uint8_t> EncodeCheckpointBase(CheckpointBase* base) {
  // The fragment runs to the end of the body: its length is implied.
  const uint64_t body_len = 1 + sizeof(uint32_t) + base->fragment.size();
  Encoder enc;
  const size_t body_at = BeginBlob(enc, body_len);
  enc.WriteU8(kBlobBase);
  enc.WriteU32(base->rank);
  enc.WritePodSpan(base->fragment.data(), base->fragment.size());
  base->checksum = EndBlob(enc, body_at, body_len);
  return enc.TakeBuffer();
}

Result<CheckpointBlobInfo> ValidateCheckpointBase(const uint8_t* data,
                                                  size_t size) {
  GRAPE_ASSIGN_OR_RETURN(BlobBody body, OpenEnvelope(data, size, kBlobBase,
                                                     "checkpoint base"));
  Decoder dec(body.data, body.size);
  CheckpointBlobInfo info;
  info.checksum = body.checksum;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&info.rank));
  return info;
}

Result<CheckpointBase> DecodeCheckpointBase(const uint8_t* data, size_t size) {
  GRAPE_ASSIGN_OR_RETURN(BlobBody body, OpenEnvelope(data, size, kBlobBase,
                                                     "checkpoint base"));
  Decoder dec(body.data, body.size);
  CheckpointBase base;
  base.checksum = body.checksum;
  GRAPE_RETURN_NOT_OK(dec.ReadU32(&base.rank));
  base.fragment.assign(body.data + dec.position(), body.data + body.size);
  return base;
}

Status CheckImageMatchesBase(const CheckpointImage& image,
                             const CheckpointBase& base) {
  if (image.rank != base.rank || image.base_checksum != base.checksum) {
    return Status::InvalidArgument(
        "checkpoint image of rank " + std::to_string(image.rank) +
        " round " + std::to_string(image.round) +
        " was not taken over the base it is restored with (rank " +
        std::to_string(base.rank) + ")");
  }
  return Status::OK();
}

std::string CheckpointStore::PathFor(uint32_t rank, uint32_t round) const {
  return dir_ + "/grape_ckpt_r" + std::to_string(rank) + "_s" +
         std::to_string(round) + ".bin";
}

std::string CheckpointStore::BasePathFor(uint32_t rank) const {
  return dir_ + "/grape_ckpt_r" + std::to_string(rank) + "_base.bin";
}

namespace {

/// Parses `grape_ckpt_r<rank>_s<round>.bin`; false for anything else.
bool ParseCheckpointName(const char* name, uint32_t* rank, uint32_t* round) {
  unsigned long r = 0, s = 0;
  char tail[8] = {0};
  if (std::sscanf(name, "grape_ckpt_r%lu_s%lu.bi%1[n]", &r, &s, tail) != 3) {
    return false;
  }
  *rank = static_cast<uint32_t>(r);
  *round = static_cast<uint32_t>(s);
  return true;
}

/// True for `grape_ckpt_r<rank>_base.bin`.
bool IsBaseName(const char* name) {
  unsigned long r = 0;
  char tail[8] = {0};
  return std::sscanf(name, "grape_ckpt_r%lu_base.bi%1[n]", &r, tail) == 2;
}

/// Writes `bytes` to `path` through `path.tmp` + fsync + rename, so a
/// crash mid-write leaves the previous file intact.
Status WriteFileAtomically(const std::string& dir, const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  // One level of mkdir so --ckpt-dir may name a directory that does not
  // exist yet; a missing parent still surfaces as the open error below.
  ::mkdir(dir.c_str(), 0755);
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("checkpoint open " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IOError("checkpoint write " + tmp + ": " +
                             std::strerror(err));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("checkpoint sync " + tmp + ": " +
                           std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("checkpoint rename " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> ReadWholeFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("no checkpoint file " + path + ": " +
                            std::strerror(errno));
  }
  std::vector<uint8_t> bytes;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    bytes.reserve(static_cast<size_t>(st.st_size));
  }
  uint8_t buf[1 << 16];
  while (true) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IOError("checkpoint read " + path + ": " +
                             std::strerror(err));
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return bytes;
}

}  // namespace

Status CheckpointStore::Put(uint32_t rank, uint32_t round,
                            std::vector<uint8_t> encoded) {
  if (!disk_backed()) {
    auto& rounds = images_[rank];
    rounds[round] = std::move(encoded);
    while (rounds.size() > 2) rounds.erase(rounds.begin());
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(
      WriteFileAtomically(dir_, PathFor(rank, round), encoded));
  auto& rounds = disk_bytes_[rank];
  rounds[round] = encoded.size();
  while (rounds.size() > 2) rounds.erase(rounds.begin());

  // GC on-disk rounds by directory scan, not instance bookkeeping:
  // workers construct a fresh store per checkpoint (and a respawned
  // worker starts with no memory at all), so the files themselves are the
  // only durable record of what exists. Keep the two newest rounds.
  DIR* d = ::opendir(dir_.c_str());
  if (d != nullptr) {
    std::vector<uint32_t> seen;
    while (struct dirent* e = ::readdir(d)) {
      uint32_t r = 0, s = 0;
      if (ParseCheckpointName(e->d_name, &r, &s) && r == rank) {
        seen.push_back(s);
      }
    }
    ::closedir(d);
    std::sort(seen.begin(), seen.end());
    for (size_t i = 0; i + 2 < seen.size(); ++i) {
      ::unlink(PathFor(rank, seen[i]).c_str());
    }
  }
  return Status::OK();
}

Status CheckpointStore::PutBase(uint32_t rank, std::vector<uint8_t> encoded) {
  base_checksums_[rank] = TrailerChecksum(encoded);
  if (!disk_backed()) {
    bases_[rank] = std::move(encoded);
    return Status::OK();
  }
  GRAPE_RETURN_NOT_OK(WriteFileAtomically(dir_, BasePathFor(rank), encoded));
  disk_base_bytes_[rank] = encoded.size();
  return Status::OK();
}

Status CheckpointStore::CommitBarrier(uint32_t rank, uint32_t round,
                                      std::vector<uint8_t> base,
                                      std::vector<uint8_t> image) {
  uint64_t want_base = 0;
  if (!base.empty()) {
    GRAPE_ASSIGN_OR_RETURN(CheckpointBlobInfo b,
                           ValidateCheckpointBase(base.data(), base.size()));
    if (b.rank != rank) {
      return Status::InvalidArgument("checkpoint base of rank " +
                                     std::to_string(b.rank) +
                                     " arrived from rank " +
                                     std::to_string(rank));
    }
    want_base = b.checksum;
  } else {
    auto it = base_checksums_.find(rank);
    if (it == base_checksums_.end()) {
      return Status::FailedPrecondition(
          "checkpoint round image from rank " + std::to_string(rank) +
          " before any base");
    }
    want_base = it->second;
  }
  GRAPE_ASSIGN_OR_RETURN(CheckpointBlobInfo img,
                         ValidateCheckpointImage(image.data(), image.size()));
  if (img.rank != rank || img.round != round) {
    return Status::InvalidArgument(
        "checkpoint image is rank " + std::to_string(img.rank) + " round " +
        std::to_string(img.round) + ", expected rank " +
        std::to_string(rank) + " round " + std::to_string(round));
  }
  if (img.base_checksum != want_base) {
    return Status::InvalidArgument(
        "checkpoint image of rank " + std::to_string(rank) + " round " +
        std::to_string(round) + " was taken over a different base");
  }
  if (!base.empty()) GRAPE_RETURN_NOT_OK(PutBase(rank, std::move(base)));
  return Put(rank, round, std::move(image));
}

Result<CheckpointImage> CheckpointStore::Get(uint32_t rank,
                                             uint32_t round) const {
  GRAPE_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded,
                         GetEncoded(rank, round));
  return DecodeCheckpointImage(encoded.data(), encoded.size());
}

Result<CheckpointBase> CheckpointStore::GetBase(uint32_t rank) const {
  GRAPE_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded, GetEncodedBase(rank));
  return DecodeCheckpointBase(encoded.data(), encoded.size());
}

Result<std::vector<uint8_t>> CheckpointStore::GetEncoded(
    uint32_t rank, uint32_t round) const {
  if (disk_backed()) return ReadWholeFile(PathFor(rank, round));
  auto it = images_.find(rank);
  if (it == images_.end() || it->second.count(round) == 0) {
    return Status::NotFound("no checkpoint for rank " + std::to_string(rank) +
                            " round " + std::to_string(round));
  }
  return it->second.at(round);
}

Result<std::vector<uint8_t>> CheckpointStore::GetEncodedBase(
    uint32_t rank) const {
  if (disk_backed()) return ReadWholeFile(BasePathFor(rank));
  auto it = bases_.find(rank);
  if (it == bases_.end()) {
    return Status::NotFound("no checkpoint base for rank " +
                            std::to_string(rank));
  }
  return it->second;
}

bool CheckpointStore::Has(uint32_t rank, uint32_t round) const {
  if (!disk_backed()) {
    auto it = images_.find(rank);
    return it != images_.end() && it->second.count(round) != 0;
  }
  return ::access(PathFor(rank, round).c_str(), R_OK) == 0;
}

bool CheckpointStore::HasBase(uint32_t rank) const {
  if (!disk_backed()) return bases_.count(rank) != 0;
  return ::access(BasePathFor(rank).c_str(), R_OK) == 0;
}

void CheckpointStore::Clear() {
  images_.clear();
  bases_.clear();
  base_checksums_.clear();
  disk_bytes_.clear();
  disk_base_bytes_.clear();
  if (!disk_backed()) return;
  // Unlink every checkpoint file in the directory, whoever wrote it — a
  // fresh store instance must be able to clean up a finished run.
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (struct dirent* e = ::readdir(d)) {
    uint32_t rank = 0, round = 0;
    if (ParseCheckpointName(e->d_name, &rank, &round) ||
        IsBaseName(e->d_name)) {
      doomed.push_back(dir_ + "/" + e->d_name);
    }
  }
  ::closedir(d);
  for (const std::string& path : doomed) ::unlink(path.c_str());
}

uint64_t CheckpointStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [rank, rounds] : images_) {
    for (const auto& [round, img] : rounds) total += img.size();
  }
  for (const auto& [rank, base] : bases_) total += base.size();
  for (const auto& [rank, rounds] : disk_bytes_) {
    for (const auto& [round, bytes] : rounds) total += bytes;
  }
  for (const auto& [rank, bytes] : disk_base_bytes_) total += bytes;
  return total;
}

}  // namespace grape
