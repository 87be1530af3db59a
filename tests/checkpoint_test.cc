// Fault-tolerant supersteps (the recovery machinery behind
// EngineOptions::checkpoint): the checkpoint blob codecs (round images and
// the once-per-run base) and the checkpoint frames of the worker protocol
// must never yield a half-restored result under truncation or corruption;
// the CheckpointStore round-trips in both memory and disk modes; a round
// image only ever restores over the base it was taken with; the shared
// retry/backoff and liveness primitives honor their bounds; and — the
// core contract — an engine whose world dies at an arbitrary frame budget
// recovers to observables bit-identical to the fault-free run (output
// hash, message/byte counters, superstep count), while a policy-off
// engine behaves exactly as it did before checkpointing existed.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/cc.h"
#include "apps/pagerank.h"
#include "apps/register_apps.h"
#include "apps/sssp.h"
#include "core/codec.h"
#include "core/engine.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "rt/checkpoint.h"
#include "rt/comm_world.h"
#include "rt/flaky_transport.h"
#include "rt/liveness.h"
#include "rt/remote_worker.h"
#include "rt/retry.h"
#include "rt/worker_protocol.h"
#include "tests/message_path_scenarios.h"
#include "tests/test_util.h"

namespace grape {
namespace {

CheckpointImage MakeImage() {
  CheckpointImage image;
  image.rank = 3;
  image.round = 17;
  image.base_checksum = 0x0123456789abcdefULL;
  image.state = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x7f, 0xff};
  CheckpointImage::PendingWireFrame f1;
  f1.from = 2;
  f1.tag = 0x112;
  f1.payload = {1, 2, 3};
  CheckpointImage::PendingWireFrame f2;
  f2.from = 4;
  f2.tag = 0x112;
  f2.payload = {};  // empty payloads must survive too
  image.pending.push_back(f1);
  image.pending.push_back(f2);
  return image;
}

TEST(CheckpointCodecTest, RoundTripsAllFields) {
  CheckpointImage image = MakeImage();
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  auto decoded = DecodeCheckpointImage(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->rank, image.rank);
  EXPECT_EQ(decoded->round, image.round);
  EXPECT_EQ(decoded->base_checksum, image.base_checksum);
  EXPECT_EQ(decoded->state, image.state);
  ASSERT_EQ(decoded->pending.size(), image.pending.size());
  for (size_t i = 0; i < image.pending.size(); ++i) {
    EXPECT_EQ(decoded->pending[i].from, image.pending[i].from);
    EXPECT_EQ(decoded->pending[i].tag, image.pending[i].tag);
    EXPECT_EQ(decoded->pending[i].payload, image.pending[i].payload);
  }
}

CheckpointBase MakeBase() {
  CheckpointBase base;
  base.rank = 3;
  base.fragment = {0x10, 0x20, 0x30, 0x00, 0xff, 0x7f, 0x01, 0x02, 0x03};
  return base;
}

/// Every rejection a checkpoint decoder may give: InvalidArgument from the
/// codec's own envelope and length checks, Corruption when a cut falls
/// inside a primitive and the decoder runs off the end.
::testing::AssertionResult IsCodecRejection(const Status& st) {
  if (st.IsInvalidArgument() || st.IsCorruption()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << st;
}

/// The decoder AND the validate-only path of one blob kind must reject
/// `bytes`; `what` names the mutation for the failure message.
template <typename DecodeFn, typename ValidateFn>
void ExpectBlobRejected(DecodeFn decode, ValidateFn validate,
                        const std::vector<uint8_t>& bytes, size_t len,
                        const std::string& what) {
  auto decoded = decode(bytes.data(), len);
  ASSERT_FALSE(decoded.ok()) << what << " decoded successfully";
  EXPECT_TRUE(IsCodecRejection(decoded.status())) << what;
  auto validated = validate(bytes.data(), len);
  ASSERT_FALSE(validated.ok()) << what << " passed validation";
  EXPECT_TRUE(IsCodecRejection(validated.status())) << what;
}

TEST(CheckpointCodecTest, EveryTruncationPrefixIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  for (size_t len = 0; len < encoded.size(); ++len) {
    ExpectBlobRejected(DecodeCheckpointImage, ValidateCheckpointImage, encoded,
                       len, "image truncated to " + std::to_string(len));
  }
}

TEST(CheckpointCodecTest, EveryByteCorruptionIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[i] ^= 0xff;
    ExpectBlobRejected(DecodeCheckpointImage, ValidateCheckpointImage, corrupt,
                       corrupt.size(), "image with byte " + std::to_string(i) +
                                           " flipped");
  }
}

TEST(CheckpointCodecTest, TrailingGarbageIsRejected) {
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  encoded.push_back(0x42);
  auto decoded = DecodeCheckpointImage(encoded.data(), encoded.size());
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsInvalidArgument()) << decoded.status();
  EXPECT_TRUE(ValidateCheckpointImage(encoded.data(), encoded.size())
                  .status()
                  .IsInvalidArgument());
}

TEST(CheckpointCodecTest, ValidationReportsTheHeaderWithoutDecoding) {
  CheckpointImage image = MakeImage();
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  auto info = ValidateCheckpointImage(encoded.data(), encoded.size());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->rank, image.rank);
  EXPECT_EQ(info->round, image.round);
  EXPECT_EQ(info->base_checksum, image.base_checksum);
}

TEST(CheckpointCodecTest, BaseRoundTripsWithItsIdentity) {
  CheckpointBase base = MakeBase();
  std::vector<uint8_t> encoded = EncodeCheckpointBase(&base);
  EXPECT_NE(base.checksum, 0u) << "encode did not report the base identity";
  auto decoded = DecodeCheckpointBase(encoded.data(), encoded.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->rank, base.rank);
  EXPECT_EQ(decoded->fragment, base.fragment);
  EXPECT_EQ(decoded->checksum, base.checksum);
  auto info = ValidateCheckpointBase(encoded.data(), encoded.size());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->rank, base.rank);
  EXPECT_EQ(info->checksum, base.checksum);

  // The identity is content: another fragment, or the same fragment at
  // another rank, is another base.
  CheckpointBase other = MakeBase();
  other.fragment.back() ^= 1;
  EncodeCheckpointBase(&other);
  EXPECT_NE(other.checksum, base.checksum);
  CheckpointBase moved = MakeBase();
  moved.rank = 4;
  EncodeCheckpointBase(&moved);
  EXPECT_NE(moved.checksum, base.checksum);
}

TEST(CheckpointCodecTest, EveryBaseTruncationAndCorruptionIsRejected) {
  CheckpointBase base = MakeBase();
  std::vector<uint8_t> encoded = EncodeCheckpointBase(&base);
  for (size_t len = 0; len < encoded.size(); ++len) {
    ExpectBlobRejected(DecodeCheckpointBase, ValidateCheckpointBase, encoded,
                       len, "base truncated to " + std::to_string(len));
  }
  for (size_t i = 0; i < encoded.size(); ++i) {
    std::vector<uint8_t> corrupt = encoded;
    corrupt[i] ^= 0xff;
    ExpectBlobRejected(DecodeCheckpointBase, ValidateCheckpointBase, corrupt,
                       corrupt.size(),
                       "base with byte " + std::to_string(i) + " flipped");
  }
  encoded.push_back(0x42);
  ExpectBlobRejected(DecodeCheckpointBase, ValidateCheckpointBase, encoded,
                     encoded.size(), "base with trailing garbage");
}

TEST(CheckpointCodecTest, OneKindOfBlobNeverPassesForTheOther) {
  CheckpointBase base = MakeBase();
  std::vector<uint8_t> base_blob = EncodeCheckpointBase(&base);
  std::vector<uint8_t> image_blob = EncodeCheckpointImage(MakeImage());
  ExpectBlobRejected(DecodeCheckpointImage, ValidateCheckpointImage, base_blob,
                     base_blob.size(), "a base read as a round image");
  ExpectBlobRejected(DecodeCheckpointBase, ValidateCheckpointBase, image_blob,
                     image_blob.size(), "a round image read as a base");
}

TEST(CheckpointStoreTest, MemoryModeRoundTrips) {
  CheckpointStore store;
  EXPECT_FALSE(store.disk_backed());
  EXPECT_FALSE(store.Has(1, 17));
  EXPECT_TRUE(store.Get(1, 17).status().IsNotFound());
  EXPECT_TRUE(store.GetEncoded(1, 17).status().IsNotFound());

  CheckpointImage image = MakeImage();  // rank 3, round 17
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  ASSERT_OK(store.Put(3, 17, encoded));
  EXPECT_TRUE(store.Has(3, 17));
  EXPECT_EQ(store.TotalBytes(), encoded.size());

  auto raw = store.GetEncoded(3, 17);
  ASSERT_TRUE(raw.ok()) << raw.status();
  EXPECT_EQ(*raw, encoded);
  auto got = store.Get(3, 17);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->round, image.round);
  EXPECT_EQ(got->state, image.state);
  store.Clear();
  EXPECT_FALSE(store.Has(3, 17));
}

TEST(CheckpointStoreTest, KeepsThePreviousRoundThroughATornBarrier) {
  // A crash mid-checkpoint can commit round 18 for some ranks only; the
  // last complete barrier (17) must survive that partial commit so every
  // rank can still restore a consistent cut. Only a third round may
  // garbage-collect the first.
  CheckpointStore store;
  CheckpointImage image = MakeImage();
  ASSERT_OK(store.Put(3, 17, EncodeCheckpointImage(image)));
  image.round = 18;
  ASSERT_OK(store.Put(3, 18, EncodeCheckpointImage(image)));
  EXPECT_TRUE(store.Has(3, 17)) << "previous round GC'd too early";
  EXPECT_TRUE(store.Has(3, 18));
  EXPECT_EQ(store.Get(3, 17)->round, 17u);

  image.round = 19;
  ASSERT_OK(store.Put(3, 19, EncodeCheckpointImage(image)));
  EXPECT_FALSE(store.Has(3, 17)) << "keep-two GC never fired";
  EXPECT_TRUE(store.Has(3, 18));
  EXPECT_TRUE(store.Has(3, 19));
}

TEST(CheckpointStoreTest, DiskModeRoundTripsAtomically) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_store_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointStore store(dir);
  EXPECT_TRUE(store.disk_backed());
  EXPECT_FALSE(store.Has(3, 17));
  EXPECT_TRUE(store.Get(3, 17).status().IsNotFound());

  CheckpointImage image = MakeImage();  // rank 3, round 17
  std::vector<uint8_t> encoded = EncodeCheckpointImage(image);
  ASSERT_OK(store.Put(3, 17, encoded));
  EXPECT_TRUE(store.Has(3, 17));
  EXPECT_EQ(store.TotalBytes(), encoded.size());
  // The tmp file from the atomic rename must be gone.
  EXPECT_NE(::access((store.PathFor(3, 17) + ".tmp").c_str(), F_OK), 0);

  // A second store over the same directory sees the persisted image —
  // exactly what a respawned worker does on restore.
  CheckpointStore reopened(dir);
  EXPECT_TRUE(reopened.Has(3, 17));
  auto got = reopened.Get(3, 17);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->rank, image.rank);
  EXPECT_EQ(got->state, image.state);

  // Keep-two GC works across instances via the directory scan: rounds
  // 18 and 19 written by a FRESH store (a respawned worker has no
  // in-process memory of round 17) still evict 17's file.
  image.round = 18;
  ASSERT_OK(CheckpointStore(dir).Put(3, 18, EncodeCheckpointImage(image)));
  EXPECT_TRUE(reopened.Has(3, 17)) << "previous round GC'd too early";
  image.round = 19;
  ASSERT_OK(CheckpointStore(dir).Put(3, 19, EncodeCheckpointImage(image)));
  EXPECT_FALSE(reopened.Has(3, 17)) << "cross-instance GC never fired";
  EXPECT_TRUE(reopened.Has(3, 18));
  EXPECT_TRUE(reopened.Has(3, 19));

  store.Clear();
  EXPECT_FALSE(store.Has(3, 17));
  EXPECT_FALSE(reopened.Has(3, 18)) << "Clear left other instances' files";
  EXPECT_FALSE(reopened.Has(3, 19));
  ::rmdir(dir.c_str());
}

TEST(CheckpointStoreTest, DiskModeRejectsCorruptedFile) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_corrupt_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointStore store(dir);
  std::vector<uint8_t> encoded = EncodeCheckpointImage(MakeImage());
  ASSERT_OK(store.Put(5, 17, encoded));

  // Flip one byte in the middle of the on-disk image.
  const std::string path = store.PathFor(5, 17);
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, static_cast<long>(encoded.size() / 2), SEEK_SET), 0);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  std::fputc(c ^ 0xff, f);
  std::fclose(f);

  auto got = store.Get(5, 17);
  ASSERT_FALSE(got.ok()) << "corrupted on-disk checkpoint decoded";
  EXPECT_TRUE(got.status().IsInvalidArgument()) << got.status();
  store.Clear();
  ::rmdir(dir.c_str());
}

TEST(CheckpointStoreTest, BaseStaysOutsideTheRoundGc) {
  CheckpointStore store;
  CheckpointBase base = MakeBase();  // rank 3
  std::vector<uint8_t> base_blob = EncodeCheckpointBase(&base);
  EXPECT_FALSE(store.HasBase(3));
  EXPECT_TRUE(store.GetBase(3).status().IsNotFound());
  ASSERT_OK(store.PutBase(3, base_blob));
  CheckpointImage image = MakeImage();
  for (uint32_t round = 17; round <= 20; ++round) {
    image.round = round;
    ASSERT_OK(store.Put(3, round, EncodeCheckpointImage(image)));
  }
  EXPECT_FALSE(store.Has(3, 18)) << "keep-two GC never fired";
  ASSERT_TRUE(store.HasBase(3)) << "round GC dropped the base";
  auto got = store.GetBase(3);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->fragment, base.fragment);
  EXPECT_EQ(got->checksum, base.checksum);
  EXPECT_EQ(*store.GetEncodedBase(3), base_blob);
  EXPECT_EQ(store.TotalBytes(),
            base_blob.size() + 2 * EncodeCheckpointImage(image).size());
  store.Clear();
  EXPECT_FALSE(store.HasBase(3));
  EXPECT_EQ(store.TotalBytes(), 0u);
}

TEST(CheckpointStoreTest, DiskModeBaseIsOneFileClearRemoves) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_base_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  CheckpointStore store(dir);
  CheckpointBase base = MakeBase();  // rank 3
  std::vector<uint8_t> base_blob = EncodeCheckpointBase(&base);
  ASSERT_OK(store.PutBase(3, base_blob));
  EXPECT_EQ(store.BasePathFor(3), dir + "/grape_ckpt_r3_base.bin");
  EXPECT_EQ(::access(store.BasePathFor(3).c_str(), R_OK), 0);
  EXPECT_NE(::access((store.BasePathFor(3) + ".tmp").c_str(), F_OK), 0);
  CheckpointImage image = MakeImage();
  for (uint32_t round = 17; round <= 19; ++round) {
    image.round = round;
    ASSERT_OK(CheckpointStore(dir).Put(3, round, EncodeCheckpointImage(image)));
  }
  // A fresh instance — a respawned worker — reads the same base back.
  CheckpointStore reopened(dir);
  EXPECT_FALSE(reopened.Has(3, 17));
  ASSERT_TRUE(reopened.HasBase(3)) << "round GC unlinked the base file";
  auto got = reopened.GetBase(3);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->checksum, base.checksum);
  EXPECT_EQ(got->fragment, base.fragment);

  reopened.Clear();
  EXPECT_FALSE(store.HasBase(3)) << "Clear left the base file";
  EXPECT_FALSE(store.Has(3, 19));
  EXPECT_EQ(::rmdir(dir.c_str()), 0) << "Clear left files behind";
}

TEST(CheckpointStoreTest, CommitBarrierValidatesBeforeStoringAnything) {
  CheckpointBase base = MakeBase();  // rank 3
  std::vector<uint8_t> base_blob = EncodeCheckpointBase(&base);
  CheckpointImage image = MakeImage();  // rank 3, round 17
  image.base_checksum = base.checksum;
  std::vector<uint8_t> image_blob = EncodeCheckpointImage(image);

  auto expect_untouched = [](const CheckpointStore& store) {
    EXPECT_FALSE(store.HasBase(3));
    EXPECT_FALSE(store.Has(3, 17));
    EXPECT_EQ(store.TotalBytes(), 0u);
  };
  {
    // A round image with no base stored and none shipped.
    CheckpointStore store;
    EXPECT_TRUE(store.CommitBarrier(3, 17, {}, image_blob)
                    .IsFailedPrecondition());
    expect_untouched(store);
  }
  {
    // An image taken over another base.
    CheckpointStore store;
    CheckpointImage stray = image;
    stray.base_checksum ^= 1;
    EXPECT_TRUE(store.CommitBarrier(3, 17, base_blob,
                                    EncodeCheckpointImage(stray))
                    .IsInvalidArgument());
    expect_untouched(store);
  }
  {
    // Blobs of another rank or round than the ack they came with.
    CheckpointStore store;
    EXPECT_TRUE(
        store.CommitBarrier(2, 17, base_blob, image_blob).IsInvalidArgument());
    EXPECT_TRUE(
        store.CommitBarrier(3, 18, base_blob, image_blob).IsInvalidArgument());
    expect_untouched(store);
  }
  CheckpointStore store;
  ASSERT_OK(store.CommitBarrier(3, 17, base_blob, image_blob));
  // Later barriers ship no base: their images must name the stored one.
  image.round = 18;
  ASSERT_OK(store.CommitBarrier(3, 18, {}, EncodeCheckpointImage(image)));
  image.round = 19;
  image.base_checksum ^= 1;
  EXPECT_TRUE(store.CommitBarrier(3, 19, {}, EncodeCheckpointImage(image))
                  .IsInvalidArgument());
  EXPECT_FALSE(store.Has(3, 19));
  EXPECT_TRUE(store.Has(3, 17)) << "a rejected commit disturbed the GC";
  EXPECT_TRUE(store.Has(3, 18));
}

// ---------------------------------------------------------------------------
// The worker protocol's checkpoint frames, driven against one real
// RemoteWorkerHost: what a worker acks at a barrier, what it accepts as a
// restore, and that nothing corrupt, truncated or mismatched is ever
// (half-)applied.
// ---------------------------------------------------------------------------

/// A 4x4 road grid cut into two fragments: small enough to flip every byte
/// of a frame that carries one. `seed` picks the weights, so two seeds are
/// two graphs of the same shape.
FragmentedGraph TinyFragments(uint64_t seed) {
  Graph g = GenerateGridRoad(4, 4, seed).value();
  return testing::ScenarioFragments(g, "hash", 2);
}

/// Rank 1's worker host, fed coordinator frames one at a time; records
/// what the host emits in reply.
class HostHarness {
 public:
  struct Frame {
    uint32_t to = 0;
    uint32_t tag = 0;
    std::vector<uint8_t> payload;
  };

  HostHarness()
      : host_(1, [this](uint32_t to, uint32_t tag,
                        std::vector<uint8_t> payload) {
          emitted_.push_back(Frame{to, tag, std::move(payload)});
          return Status::OK();
        }) {
    RegisterBuiltinWorkerApps();
  }

  /// Delivers one coordinator frame; returns the host's last reply.
  Frame Deliver(uint32_t tag, std::vector<uint8_t> payload) {
    emitted_.clear();
    Status st = host_.OnFrame(kCoordinatorRank, tag, std::move(payload));
    EXPECT_TRUE(st.ok()) << st;
    return emitted_.empty() ? Frame{} : emitted_.back();
  }

  /// Loads `frag` (fragment 0) for SSSP and runs PEval.
  void LoadAndRun(const Fragment& frag) {
    Encoder load;
    load.WriteString("sssp");
    load.WriteU8(0);
    EncodeValue(load, SsspQuery{3});
    frag.EncodeTo(load);
    ASSERT_EQ(Deliver(kTagWkLoad, load.TakeBuffer()).tag, kTagWkAck);
    ASSERT_EQ(Deliver(kTagWkRunPEval, {}).tag, kTagWkAck);
  }

  /// Orders the barrier of `round`; returns the host's reply frame.
  Frame Checkpoint(uint32_t round, bool with_base,
                   const std::string& dir = "") {
    WkCheckpointCommand cmd;
    cmd.round = round;
    cmd.with_base = with_base;
    cmd.dir = dir;
    Encoder enc;
    cmd.EncodeTo(enc);
    return Deliver(kTagWkCheckpoint, enc.TakeBuffer());
  }

  /// True when the host holds no loaded worker: a phase command is
  /// answered with an error, never run.
  bool Unloaded() {
    return Deliver(kTagWkGetPartial, {}).tag == kTagWkError;
  }

 private:
  std::vector<Frame> emitted_;
  RemoteWorkerHost host_;
};

WkCheckpointAck DecodeAck(const HostHarness::Frame& frame) {
  EXPECT_EQ(frame.tag, kTagWkCheckpointAck)
      << (frame.tag == kTagWkError ? DecodeWorkerError(frame.payload)
                                   : Status::OK());
  WkCheckpointAck ack;
  Decoder dec(frame.payload);
  Status st = WkCheckpointAck::DecodeFrom(dec, &ack);
  EXPECT_TRUE(st.ok()) << st;
  return ack;
}

std::vector<uint8_t> RestoreFrame(uint32_t round, std::vector<uint8_t> image,
                                  std::vector<uint8_t> base) {
  WkRestoreCommand cmd;
  cmd.app_name = "sssp";
  cmd.round = round;
  cmd.image = std::move(image);
  cmd.base = std::move(base);
  Encoder enc;
  cmd.EncodeTo(enc);
  return enc.TakeBuffer();
}

TEST(CheckpointProtocolTest, BaseShipsOnceAndRoundImagesNameIt) {
  FragmentedGraph fg = TinyFragments(7);
  HostHarness worker;
  worker.LoadAndRun(fg.fragments[0]);
  // A round image before the run's base has nothing to refer to.
  EXPECT_EQ(worker.Checkpoint(1, false).tag, kTagWkError);

  WkCheckpointAck first = DecodeAck(worker.Checkpoint(1, true));
  ASSERT_FALSE(first.base.empty());
  EXPECT_EQ(first.bytes, first.image.size() + first.base.size());
  auto base = DecodeCheckpointBase(first.base.data(), first.base.size());
  ASSERT_TRUE(base.ok()) << base.status();
  Encoder frag;
  fg.fragments[0].EncodeTo(frag);
  EXPECT_EQ(base->fragment, frag.buffer()) << "the base is the fragment";

  WkCheckpointAck second = DecodeAck(worker.Checkpoint(2, false));
  EXPECT_TRUE(second.base.empty());
  EXPECT_EQ(second.bytes, second.image.size());
  EXPECT_LT(second.image.size(), frag.size())
      << "a round image still carries the fragment";
  auto image = DecodeCheckpointImage(second.image.data(), second.image.size());
  ASSERT_TRUE(image.ok()) << image.status();
  EXPECT_EQ(image->base_checksum, base->checksum);

  // A restored worker keeps taking round images over the base it restored.
  HostHarness respawned;
  HostHarness::Frame ack =
      respawned.Deliver(kTagWkRestore, RestoreFrame(2, second.image,
                                                    first.base));
  ASSERT_EQ(ack.tag, kTagWkAck) << DecodeWorkerError(ack.payload);
  WkCheckpointAck third = DecodeAck(respawned.Checkpoint(3, false));
  auto next = DecodeCheckpointImage(third.image.data(), third.image.size());
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->base_checksum, base->checksum);
}

TEST(CheckpointProtocolTest, RoundImageOverAnotherRunsBaseIsRejected) {
  // Same shape, other weights: only the base identity tells them apart.
  FragmentedGraph ours = TinyFragments(7);
  FragmentedGraph theirs = TinyFragments(8);
  HostHarness a, b;
  a.LoadAndRun(ours.fragments[0]);
  b.LoadAndRun(theirs.fragments[0]);
  WkCheckpointAck a1 = DecodeAck(a.Checkpoint(1, true));
  WkCheckpointAck b1 = DecodeAck(b.Checkpoint(1, true));
  ASSERT_NE(a1.base, b1.base);

  HostHarness respawned;
  HostHarness::Frame reply =
      respawned.Deliver(kTagWkRestore, RestoreFrame(1, a1.image, b1.base));
  ASSERT_EQ(reply.tag, kTagWkError) << "restored over another run's base";
  Status st = DecodeWorkerError(reply.payload);
  EXPECT_TRUE(st.IsInvalidArgument()) << st;
  EXPECT_TRUE(respawned.Unloaded()) << "a rejected restore left a worker";

  // The coordinator's commit refuses the same pairing.
  CheckpointStore store;
  ASSERT_OK(store.CommitBarrier(1, 1, b1.base, b1.image));
  EXPECT_TRUE(store.CommitBarrier(1, 1, {}, a1.image).IsInvalidArgument());

  // And the matching pair restores.
  ASSERT_EQ(respawned.Deliver(kTagWkRestore,
                              RestoreFrame(1, a1.image, a1.base)).tag,
            kTagWkAck);
  EXPECT_FALSE(respawned.Unloaded());
}

TEST(CheckpointProtocolTest, EveryCorruptCheckpointAckIsRejected) {
  FragmentedGraph fg = TinyFragments(7);
  HostHarness worker;
  worker.LoadAndRun(fg.fragments[0]);
  constexpr uint32_t kBarrier = 1;
  HostHarness::Frame frame = worker.Checkpoint(kBarrier, true);
  ASSERT_EQ(frame.tag, kTagWkCheckpointAck);
  const std::vector<uint8_t>& wire = frame.payload;
  {
    WkCheckpointAck ack = DecodeAck(frame);
    CheckpointStore store;
    ASSERT_OK(store.CommitBarrier(1, kBarrier, ack.base, ack.image));
  }

  // What the coordinator does with one ack payload: decode, drop a stale
  // round, commit the blobs. OK only if something was stored.
  auto coordinator_takes = [](const uint8_t* data, size_t size,
                              CheckpointStore* store) -> Status {
    Decoder dec(data, size);
    WkCheckpointAck ack;
    GRAPE_RETURN_NOT_OK(WkCheckpointAck::DecodeFrom(dec, &ack));
    if (ack.round != kBarrier) return Status::Cancelled("stale, dropped");
    return store->CommitBarrier(1, ack.round, std::move(ack.base),
                                std::move(ack.image));
  };
  for (size_t len = 0; len < wire.size(); ++len) {
    CheckpointStore store;
    Decoder dec(wire.data(), len);
    WkCheckpointAck ack;
    ASSERT_FALSE(WkCheckpointAck::DecodeFrom(dec, &ack).ok())
        << "ack truncated to " << len << "/" << wire.size() << " decoded";
    ASSERT_FALSE(coordinator_takes(wire.data(), len, &store).ok());
    EXPECT_EQ(store.TotalBytes(), 0u);
  }
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> corrupt = wire;
    corrupt[i] ^= 0xff;
    CheckpointStore store;
    ASSERT_FALSE(coordinator_takes(corrupt.data(), corrupt.size(), &store).ok())
        << "ack with byte " << i << " flipped was committed";
    EXPECT_FALSE(store.HasBase(1)) << "byte " << i << ": half-applied";
    EXPECT_EQ(store.TotalBytes(), 0u) << "byte " << i << ": half-applied";
  }
}

TEST(CheckpointProtocolTest, EveryCorruptRestoreCommandIsRejected) {
  FragmentedGraph fg = TinyFragments(7);
  HostHarness worker;
  worker.LoadAndRun(fg.fragments[0]);
  WkCheckpointAck ack = DecodeAck(worker.Checkpoint(1, true));
  const std::vector<uint8_t> wire = RestoreFrame(1, ack.image, ack.base);
  {
    HostHarness respawned;
    ASSERT_EQ(respawned.Deliver(kTagWkRestore, wire).tag, kTagWkAck);
  }
  // One host for the whole sweep: each rejected restore must leave it
  // holding no worker at all, whatever the previous frame did.
  HostHarness respawned;
  for (size_t len = 0; len < wire.size(); ++len) {
    Decoder dec(wire.data(), len);
    WkRestoreCommand cmd;
    ASSERT_FALSE(WkRestoreCommand::DecodeFrom(dec, &cmd).ok())
        << "restore command truncated to " << len << " decoded";
    std::vector<uint8_t> cut(wire.begin(), wire.begin() + len);
    ASSERT_EQ(respawned.Deliver(kTagWkRestore, cut).tag, kTagWkError)
        << "restore command truncated to " << len << " was accepted";
    ASSERT_TRUE(respawned.Unloaded()) << "truncation " << len;
  }
  for (size_t i = 0; i < wire.size(); ++i) {
    std::vector<uint8_t> corrupt = wire;
    corrupt[i] ^= 0xff;
    ASSERT_EQ(respawned.Deliver(kTagWkRestore, corrupt).tag, kTagWkError)
        << "restore command with byte " << i << " flipped was accepted";
    ASSERT_TRUE(respawned.Unloaded()) << "byte " << i << ": half-applied";
  }
}

TEST(RetryTest, AttemptCapBoundsTheLoop) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  policy.jitter_pct = 0;
  policy.max_attempts = 3;
  RetryState retry(policy, /*deadline_ms=*/0);
  EXPECT_TRUE(retry.CanAttempt());
  EXPECT_TRUE(retry.BackoffOrGiveUp());
  EXPECT_TRUE(retry.BackoffOrGiveUp());
  EXPECT_FALSE(retry.BackoffOrGiveUp()) << "attempt cap did not bind";
  EXPECT_FALSE(retry.CanAttempt());
  EXPECT_EQ(retry.attempts(), 3u);
}

TEST(RetryTest, DeadlineBoundsTheLoop) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 10;
  const uint64_t deadline = RetryState::NowMs() + 40;
  RetryState retry(policy, deadline, /*jitter_seed=*/7);
  int spins = 0;
  while (retry.BackoffOrGiveUp()) {
    ASSERT_LT(++spins, 1000) << "deadline never bound the retry loop";
  }
  // BackoffOrGiveUp clamps its sleep to the deadline, so the loop exits
  // at the deadline, not a full backoff period past it.
  EXPECT_GE(RetryState::NowMs() + 2, deadline);
  EXPECT_LT(RetryState::NowMs(), deadline + 1000);
}

TEST(LivenessTest, ProbeDetectsDeathAndLeaseAloneNeverFails) {
  WorkerLivenessMonitor monitor(2, /*lease_ms=*/10);
  // No probe installed: Check never fails, no matter how stale the lease.
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  ASSERT_OK(monitor.Check());

  bool dead = false;
  monitor.set_pid_probe([&dead](uint32_t frag) { return frag == 1 && dead; });
  ASSERT_OK(monitor.Check());
  dead = true;
  Status st = monitor.Check();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsUnavailable()) << st;
}

TEST(LivenessTest, PingsAreLeaseGatedAndNotFlooding) {
  WorkerLivenessMonitor monitor(1, /*lease_ms=*/30);
  EXPECT_FALSE(monitor.ShouldPing(0)) << "pinged inside a fresh lease";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(monitor.ShouldPing(0)) << "stale lease never triggered a ping";
  EXPECT_FALSE(monitor.ShouldPing(0)) << "ping clock did not debounce";
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.Heard(0);
  EXPECT_FALSE(monitor.ShouldPing(0)) << "proof of life did not renew lease";

  WorkerLivenessMonitor disabled(1, /*lease_ms=*/0);
  EXPECT_FALSE(disabled.ShouldPing(0)) << "lease 0 must disable pings";
}

// ---------------------------------------------------------------------------
// Engine recovery over FlakyTransport's deterministic crash knobs. The
// inproc twin of the SIGKILL matrix in transport_fault_test.cc: the world
// "dies" after an exact frame budget, the engine rebuilds it via
// Recover(), restores workers from the last checkpoint, and the finished
// run must be indistinguishable from the fault-free one.
// ---------------------------------------------------------------------------

struct RemoteObs {
  bool ok = false;
  Status status;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint32_t supersteps = 0;
  uint64_t hash = 0;
  uint32_t recoveries = 0;
  uint32_t checkpoints = 0;
  uint64_t checkpoint_bytes = 0;
  std::string metrics_text;
  uint64_t accepted_frames = 0;
};

/// Runs `AppT` as remote compute over CommWorld wrapped in a
/// FlakyTransport, returning every observable the recovery contract
/// compares. `hash_out` maps the app's output to its golden hash.
template <typename AppT, typename QueryT, typename HashFn>
RemoteObs RunRemoteFlaky(const FragmentedGraph& fg, const char* app_name,
                         QueryT query, FlakyOptions fo, CheckpointPolicy cp,
                         HashFn hash_out, int remote_timeout_ms = 30000) {
  RegisterBuiltinWorkerApps();
  CommWorld inner(static_cast<uint32_t>(fg.fragments.size()) + 1);
  FlakyTransport flaky(&inner, fo);
  EngineOptions options;
  options.transport = &flaky;
  options.remote_app = app_name;
  options.max_supersteps = 2000;
  options.remote_timeout_ms = remote_timeout_ms;
  options.checkpoint = cp;
  options.verbose = ::getenv("GRAPE_TEST_VERBOSE") != nullptr;
  GrapeEngine<AppT> engine(fg, AppT{}, options);
  auto out = engine.Run(query);
  RemoteObs obs;
  obs.ok = out.ok();
  obs.status = out.status();
  const EngineMetrics& m = engine.metrics();
  obs.messages = m.messages;
  obs.bytes = m.bytes;
  obs.supersteps = m.supersteps;
  obs.recoveries = m.recoveries;
  obs.checkpoints = m.checkpoints;
  obs.checkpoint_bytes = m.checkpoint_bytes;
  obs.metrics_text = m.ToString();
  obs.accepted_frames = flaky.accepted();
  if (out.ok()) obs.hash = hash_out(*out);
  return obs;
}

CheckpointPolicy EveryStepPolicy() {
  CheckpointPolicy cp;
  cp.every_k = 1;
  // Pings are wall-clock driven and would perturb the deterministic frame
  // budgets below; a generous lease keeps them out of fast test runs.
  cp.lease_ms = 60000;
  return cp;
}

/// One app's crash matrix: a clean run fixes the golden observables and
/// the total frame budget, then the world is killed at several fractions
/// of that budget — early (often before the first checkpoint, exercising
/// the cold-restart path), middle, and late (mid-fixpoint or during
/// assemble). Every recovered run must match the golden bit for bit.
template <typename AppT, typename QueryT, typename HashFn>
void RunCrashMatrix(const char* app_name, const FragmentedGraph& fg,
                    QueryT query, HashFn hash_out) {
  RemoteObs golden = RunRemoteFlaky<AppT>(fg, app_name, query, FlakyOptions{},
                                          EveryStepPolicy(), hash_out);
  ASSERT_TRUE(golden.ok) << app_name << " clean run failed: " << golden.status;
  ASSERT_EQ(golden.recoveries, 0u);
  ASSERT_GT(golden.accepted_frames, 20u) << "budget too small to kill inside";

  for (double frac : {0.1, 0.5, 0.9}) {
    FlakyOptions fo;
    fo.kill_after_frames =
        std::max<uint64_t>(1, static_cast<uint64_t>(
                                  golden.accepted_frames * frac));
    RemoteObs got = RunRemoteFlaky<AppT>(fg, app_name, query, fo,
                                         EveryStepPolicy(), hash_out);
    SCOPED_TRACE(std::string(app_name) + " killed after frame " +
                 std::to_string(fo.kill_after_frames) + "/" +
                 std::to_string(golden.accepted_frames));
    ASSERT_TRUE(got.ok) << got.status;
    EXPECT_GE(got.recoveries, 1u) << "fault plan injected nothing";
    EXPECT_EQ(got.hash, golden.hash) << "recovered output diverged";
    EXPECT_EQ(got.messages, golden.messages);
    EXPECT_EQ(got.bytes, golden.bytes);
    EXPECT_EQ(got.supersteps, golden.supersteps);
  }
}

TEST(CheckpointRecoveryTest, SsspRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RunCrashMatrix<SsspApp>("sssp", fg, SsspQuery{3}, [](const SsspOutput& o) {
    return testing::HashVector(o.dist);
  });
}

TEST(CheckpointRecoveryTest, CcRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("er");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 6);
  RunCrashMatrix<CcApp>("cc", fg, CcQuery{}, [](const CcOutput& o) {
    return testing::HashVector(o.label);
  });
}

TEST(CheckpointRecoveryTest, PageRankRecoversBitIdentical) {
  Graph g = testing::ScenarioGraph("rmat");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  PageRankQuery query;
  query.max_iterations = 30;
  RunCrashMatrix<PageRankApp>("pagerank", fg, query,
                              [](const PageRankOutput& o) {
                                return testing::HashVector(o.rank);
                              });
}

TEST(CheckpointRecoveryTest, DiskBackedCheckpointsRestoreTheSameWay) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_engine_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  auto hash = [](const SsspOutput& o) { return testing::HashVector(o.dist); };

  CheckpointPolicy cp = EveryStepPolicy();
  cp.dir = dir;
  RemoteObs golden = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3},
                                             FlakyOptions{}, cp, hash);
  ASSERT_TRUE(golden.ok) << golden.status;
  // Workers persisted real per-rank images under the directory; with
  // every_k=1 the final barrier is the last superstep.
  CheckpointStore probe(dir);
  for (uint32_t rank = 1; rank <= 4; ++rank) {
    EXPECT_TRUE(probe.Has(rank, golden.supersteps))
        << "no checkpoint file for rank " << rank << " at superstep "
        << golden.supersteps;
  }

  FlakyOptions fo;
  fo.kill_after_frames = golden.accepted_frames / 2;
  RemoteObs got = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3}, fo, cp,
                                          hash);
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_GE(got.recoveries, 1u);
  EXPECT_EQ(got.hash, golden.hash);
  EXPECT_EQ(got.messages, golden.messages);
  EXPECT_EQ(got.supersteps, golden.supersteps);

  CheckpointStore(dir).Clear();
  ::rmdir(dir.c_str());
}

TEST(CheckpointRecoveryTest, DiskRunWritesOneBasePerRankAndSmallRoundImages) {
  const std::string dir = ::testing::TempDir() + "/grape_ckpt_bytes_" +
                          std::to_string(getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RegisterBuiltinWorkerApps();
  CommWorld world(5);
  EngineOptions options;
  options.transport = &world;
  options.remote_app = "sssp";
  options.max_supersteps = 2000;
  options.checkpoint = EveryStepPolicy();
  options.checkpoint.dir = dir;
  // Keep-two GC leaves only the last two rounds on disk, so every round
  // file is measured at its own barrier (the hook runs right after it).
  const CheckpointStore probe(dir);
  auto file_size = [](const std::string& path) -> uint64_t {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                          : 0;
  };
  uint64_t round_bytes = 0, largest_barrier = 0;
  std::vector<uint64_t> largest_round(5, 0);
  options.on_superstep = [&](uint32_t superstep) {
    uint64_t barrier = 0;
    for (uint32_t rank = 1; rank <= 4; ++rank) {
      const uint64_t size = file_size(probe.PathFor(rank, superstep));
      EXPECT_GT(size, 0u) << "no round file for rank " << rank
                          << " at superstep " << superstep;
      largest_round[rank] = std::max(largest_round[rank], size);
      barrier += size;
    }
    round_bytes += barrier;
    largest_barrier = std::max(largest_barrier, barrier);
  };
  GrapeEngine<SsspApp> engine(fg, SsspApp{}, options);
  auto out = engine.Run(SsspQuery{3});
  ASSERT_TRUE(out.ok()) << out.status();
  const EngineMetrics& m = engine.metrics();
  ASSERT_EQ(m.checkpoints, m.supersteps);
  ASSERT_GT(m.supersteps, 2u);

  uint32_t base_files = 0, tmp_files = 0;
  DIR* d = ::opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (struct dirent* e = ::readdir(d)) {
    const std::string name = e->d_name;
    if (name.find("_base.bin") != std::string::npos) ++base_files;
    if (name.find(".tmp") != std::string::npos) ++tmp_files;
  }
  ::closedir(d);
  EXPECT_EQ(base_files, 4u) << "one base file per rank, no more";
  EXPECT_EQ(tmp_files, 0u);
  uint64_t base_bytes = 0;
  for (uint32_t rank = 1; rank <= 4; ++rank) {
    Encoder frag;
    fg.fragments[rank - 1].EncodeTo(frag);
    const uint64_t base = file_size(probe.BasePathFor(rank));
    EXPECT_GT(base, frag.size()) << "rank " << rank << "'s base lacks the "
                                 << "fragment";
    EXPECT_LT(largest_round[rank], frag.size())
        << "rank " << rank << "'s round images still carry the fragment";
    base_bytes += base;
  }
  // Every written byte is accounted for: each base once, plus the round
  // images of every barrier.
  EXPECT_EQ(m.checkpoint_bytes, base_bytes + round_bytes);
  EXPECT_LE(m.checkpoint_bytes,
            base_bytes + uint64_t{m.supersteps} * largest_barrier);
  EXPECT_LT(m.checkpoint_bytes, uint64_t{m.supersteps} * base_bytes)
      << "below even the fragment bytes of one base per barrier";

  CheckpointStore(dir).Clear();
  ::rmdir(dir.c_str());
}

TEST(CheckpointRecoveryTest, PartitionHealsAndRunStillMatchesGolden) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  auto hash = [](const SsspOutput& o) { return testing::HashVector(o.dist); };
  RemoteObs golden = RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3},
                                             FlakyOptions{}, EveryStepPolicy(),
                                             hash);
  ASSERT_TRUE(golden.ok) << golden.status;

  FlakyOptions fo;
  fo.partition_after_frames = golden.accepted_frames / 2;
  fo.partition_heal_frames = 2;  // two frames lost, then the link heals
  CheckpointPolicy cp = EveryStepPolicy();
  cp.max_recoveries = 5;  // each lost frame can cost one attempt
  RemoteObs got =
      RunRemoteFlaky<SsspApp>(fg, "sssp", SsspQuery{3}, fo, cp, hash);
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_GE(got.recoveries, 1u);
  EXPECT_EQ(got.hash, golden.hash);
  EXPECT_EQ(got.messages, golden.messages);
  EXPECT_EQ(got.supersteps, golden.supersteps);
}

TEST(CheckpointRecoveryTest, GivesUpAfterMaxRecoveries) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.fail_send_after = 30;  // persistent: survives Recover, every retry dies
  CheckpointPolicy cp = EveryStepPolicy();
  cp.max_recoveries = 2;
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, cp,
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_FALSE(got.ok) << "a persistent fault must exhaust the retry budget";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
}

TEST(CheckpointRecoveryTest, PolicyOffDeathStaysFatal) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.kill_after_frames = 40;
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_FALSE(got.ok) << "engine silently recovered with the policy off";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
  EXPECT_EQ(got.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Policy-off invariance and checkpoint cost accounting.
// ---------------------------------------------------------------------------

TEST(CheckpointRecoveryTest, PolicyOffBehaviorMatchesPreCheckpointEngine) {
  // The frozen message-path scenario runner predates checkpointing; a
  // default-policy engine must reproduce its observables exactly, and its
  // metrics line must not grow checkpoint fields.
  testing::MessagePathObservation frozen = testing::RunMessagePathScenario(
      "sssp", "grid", "hash", 4, "inproc", "remote");
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, FlakyOptions{}, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_EQ(got.hash, frozen.output_hash);
  EXPECT_EQ(got.messages, frozen.messages);
  EXPECT_EQ(got.bytes, frozen.bytes);
  EXPECT_EQ(got.supersteps, frozen.supersteps);
  EXPECT_EQ(got.checkpoints, 0u);
  EXPECT_EQ(got.checkpoint_bytes, 0u);
  EXPECT_EQ(got.metrics_text.find("ckpts="), std::string::npos)
      << "policy-off metrics grew checkpoint fields: " << got.metrics_text;
}

TEST(CheckpointRecoveryTest, CheckpointingLeavesCommStatsUntouched) {
  // Checkpoint/ack/ping frames are control traffic: with the policy ON and
  // no fault injected, CommStats and the output must match the frozen
  // scenario byte for byte — only the checkpoint counters may move.
  testing::MessagePathObservation frozen = testing::RunMessagePathScenario(
      "sssp", "grid", "hash", 4, "inproc", "remote");
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, FlakyOptions{}, EveryStepPolicy(),
      [](const SsspOutput& o) { return testing::HashVector(o.dist); });
  ASSERT_TRUE(got.ok) << got.status;
  EXPECT_EQ(got.hash, frozen.output_hash);
  EXPECT_EQ(got.messages, frozen.messages);
  EXPECT_EQ(got.bytes, frozen.bytes);
  EXPECT_EQ(got.supersteps, frozen.supersteps);
  EXPECT_EQ(got.checkpoints, got.supersteps)
      << "every_k=1 must checkpoint every superstep";
  EXPECT_GT(got.checkpoint_bytes, 0u);
  EXPECT_NE(got.metrics_text.find("ckpts="), std::string::npos)
      << got.metrics_text;
}

// ---------------------------------------------------------------------------
// Await cadence: the shared poll/deadline loop must still make deadlines
// fire — a silent substrate fails the run within remote_timeout_ms-ish,
// never hangs.
// ---------------------------------------------------------------------------

TEST(EngineTimingTest, RemoteDeadlineFiresUnderSilentSubstrate) {
  Graph g = testing::ScenarioGraph("grid");
  FragmentedGraph fg = testing::ScenarioFragments(g, "hash", 4);
  FlakyOptions fo;
  fo.drop_rate = 1.0;  // every frame vanishes: workers never hear anything

  const auto start = std::chrono::steady_clock::now();
  RemoteObs got = RunRemoteFlaky<SsspApp>(
      fg, "sssp", SsspQuery{3}, fo, CheckpointPolicy{},
      [](const SsspOutput& o) { return testing::HashVector(o.dist); },
      /*remote_timeout_ms=*/300);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(got.ok) << "silent substrate produced a result";
  EXPECT_TRUE(got.status.IsUnavailable()) << got.status;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            10)
      << "deadline fired far too late";
}

}  // namespace
}  // namespace grape
