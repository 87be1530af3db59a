// Torture suite for the tcp transport's incremental frame decoder
// (rt/frame_decoder.h): a TCP stream owes you nothing about chunk
// boundaries, so the decoder must reassemble frames from 1-byte-at-a-time
// delivery, headers split at every offset, many frames coalesced into one
// read, and surface mid-frame EOF or a corrupt header as a Status — never
// a hang, an over-read past a frame's declared length, or UB. Frame
// payloads reuse the codec_fuzz_test corpora (random record blocks through
// EncodeRecordBlock), so every reassembled frame is also decoded back to
// records and compared bit for bit.

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/codec.h"
#include "gtest/gtest.h"
#include "rt/frame_decoder.h"
#include "rt/message.h"
#include "util/random.h"
#include "util/serializer.h"

namespace grape {
namespace {

struct Corpus {
  std::vector<RtMessage> frames;      // expected reassembly
  std::vector<uint8_t> wire;          // concatenated header+payload bytes
  std::vector<size_t> boundaries;     // wire offsets where a frame ends
};

/// Builds frames the way the engine does — random (dst_lid, value) record
/// blocks through EncodeRecordBlock — exactly the corpus codec_fuzz_test
/// round-trips, plus empty payloads, which are legal frames.
Corpus BuildCorpus(uint64_t seed, size_t frame_count) {
  Rng rng(seed);
  Corpus c;
  size_t at = 0;
  for (size_t f = 0; f < frame_count; ++f) {
    std::vector<uint8_t> payload;
    if (rng.NextBounded(5) != 0) {  // 1 in 5 frames is an empty payload
      const size_t n = rng.NextBounded(200);
      RecordBlock<double> block;
      std::vector<double> values(n);
      for (size_t k = 0; k < n; ++k) {
        uint64_t bits = rng.NextUint64();
        std::memcpy(&values[k], &bits, sizeof(bits));
        block.Append(static_cast<uint32_t>(rng.NextUint64()), values[k]);
      }
      Encoder enc;
      EncodeRecordBlock(enc, block);
      payload = enc.TakeBuffer();
    }
    RtMessage msg{static_cast<uint32_t>(rng.NextBounded(8)),
                  static_cast<uint32_t>(rng.NextBounded(8)),
                  static_cast<uint32_t>(rng.NextBounded(4)) + 1,
                  std::move(payload)};
    uint8_t header[kFrameHeaderBytes];
    EncodeFrameHeader(FrameHeader{msg.from, msg.to, msg.tag,
                                  static_cast<uint32_t>(msg.payload.size())},
                      header);
    c.wire.insert(c.wire.end(), header, header + sizeof(header));
    c.wire.insert(c.wire.end(), msg.payload.begin(), msg.payload.end());
    at += sizeof(header) + msg.payload.size();
    c.boundaries.push_back(at);
    c.frames.push_back(std::move(msg));
  }
  return c;
}

void ExpectFramesEqual(const std::vector<RtMessage>& got,
                       const std::vector<RtMessage>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].from, want[i].from) << "frame " << i;
    EXPECT_EQ(got[i].to, want[i].to) << "frame " << i;
    EXPECT_EQ(got[i].tag, want[i].tag) << "frame " << i;
    ASSERT_EQ(got[i].payload.size(), want[i].payload.size()) << "frame " << i;
    // Vector equality, not memcmp: an empty payload's data() may be null.
    EXPECT_TRUE(got[i].payload == want[i].payload)
        << "frame " << i << " payload bytes differ";
  }
}

/// Feeds `wire` in chunks produced by `next_chunk(offset)` and collects
/// every decoded frame.
template <typename NextChunk>
std::vector<RtMessage> DecodeChunked(FrameDecoder& dec,
                                     const std::vector<uint8_t>& wire,
                                     NextChunk next_chunk) {
  std::vector<RtMessage> out;
  size_t at = 0;
  while (at < wire.size()) {
    const size_t take = std::min(next_chunk(at), wire.size() - at);
    EXPECT_TRUE(dec.Feed(wire.data() + at, take).ok());
    at += take;
    while (auto msg = dec.Next()) out.push_back(std::move(*msg));
  }
  return out;
}

TEST(TcpFramingTest, OneByteAtATimeDelivery) {
  Corpus c = BuildCorpus(0x7c91ULL, 40);
  FrameDecoder dec;
  auto got = DecodeChunked(dec, c.wire, [](size_t) { return size_t{1}; });
  ExpectFramesEqual(got, c.frames);
  EXPECT_TRUE(dec.Finish().ok());
  EXPECT_FALSE(dec.mid_frame());
}

TEST(TcpFramingTest, HeaderSplitAtEveryOffset) {
  // One frame, its 16-byte header split at every possible position, the
  // payload arriving in two more pieces.
  Corpus c = BuildCorpus(0x11aaULL, 1);
  ASSERT_GT(c.frames[0].payload.size(), 4u);  // seed chosen to be non-empty
  for (size_t cut = 1; cut < kFrameHeaderBytes; ++cut) {
    FrameDecoder dec;
    EXPECT_TRUE(dec.Feed(c.wire.data(), cut).ok());
    EXPECT_FALSE(dec.Next().has_value()) << "frame completed mid-header";
    EXPECT_TRUE(dec.mid_frame());
    const size_t mid = kFrameHeaderBytes + c.frames[0].payload.size() / 2;
    EXPECT_TRUE(dec.Feed(c.wire.data() + cut, mid - cut).ok());
    EXPECT_FALSE(dec.Next().has_value()) << "frame completed mid-payload";
    EXPECT_TRUE(dec.Feed(c.wire.data() + mid, c.wire.size() - mid).ok());
    auto msg = dec.Next();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, c.frames[0].payload);
    EXPECT_TRUE(dec.Finish().ok());
  }
}

TEST(TcpFramingTest, CoalescedFramesInOneFeed) {
  Corpus c = BuildCorpus(0x2b2bULL, 25);
  FrameDecoder dec;
  ASSERT_TRUE(dec.Feed(c.wire.data(), c.wire.size()).ok());
  EXPECT_EQ(dec.ready_count(), c.frames.size());
  std::vector<RtMessage> got;
  while (auto msg = dec.Next()) got.push_back(std::move(*msg));
  ExpectFramesEqual(got, c.frames);
  EXPECT_TRUE(dec.Finish().ok());
}

TEST(TcpFramingTest, NeverOverReadsPastADeclaredLength) {
  // Feed exactly one frame plus j bytes of the next: the first frame must
  // complete using only its declared bytes, and the j extras must stay
  // buffered as the (incomplete) next frame — not be folded into the
  // first.
  Corpus c = BuildCorpus(0x91f3ULL, 2);
  const size_t first_end = c.boundaries[0];
  for (size_t extra : {size_t{0}, size_t{1}, size_t{7}, size_t{15}}) {
    FrameDecoder dec;
    ASSERT_TRUE(dec.Feed(c.wire.data(), first_end + extra).ok());
    auto msg = dec.Next();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload, c.frames[0].payload);
    EXPECT_FALSE(dec.Next().has_value());
    EXPECT_EQ(dec.mid_frame(), extra > 0)
        << extra << " stray bytes misaccounted";
    EXPECT_EQ(dec.Finish().ok(), extra == 0);
  }
}

TEST(TcpFramingTest, MidFrameEofIsAStatusNeverAHang) {
  // EOF at every byte offset of a short stream: Finish() must say OK
  // exactly at frame boundaries and report a Status everywhere else.
  Corpus c = BuildCorpus(0x5d5dULL, 3);
  size_t bi = 0;
  for (size_t cut = 0; cut <= c.wire.size(); ++cut) {
    FrameDecoder dec;
    ASSERT_TRUE(dec.Feed(c.wire.data(), cut).ok());
    while (dec.Next()) {
    }
    while (bi < c.boundaries.size() && c.boundaries[bi] < cut) ++bi;
    const bool at_boundary =
        cut == 0 || (bi < c.boundaries.size() && c.boundaries[bi] == cut) ||
        cut == c.wire.size();
    if (at_boundary) {
      EXPECT_TRUE(dec.Finish().ok()) << "cut at " << cut;
    } else {
      const Status st = dec.Finish();
      EXPECT_FALSE(st.ok()) << "mid-frame EOF at " << cut << " not surfaced";
      EXPECT_TRUE(st.IsUnavailable()) << st;
    }
  }
}

TEST(TcpFramingTest, CorruptLengthIsRejectedBeforeAllocating) {
  uint8_t header[kFrameHeaderBytes];
  EncodeFrameHeader(FrameHeader{0, 1, 2, 0}, header);
  // Hand-corrupt the length field past the frame bound.
  const uint32_t bad = kMaxFramePayloadBytes + 17;
  header[12] = static_cast<uint8_t>(bad);
  header[13] = static_cast<uint8_t>(bad >> 8);
  header[14] = static_cast<uint8_t>(bad >> 16);
  header[15] = static_cast<uint8_t>(bad >> 24);
  FrameDecoder dec;
  Status st = dec.Feed(header, sizeof(header));
  EXPECT_TRUE(st.IsCorruption()) << st;
  EXPECT_FALSE(dec.Next().has_value());
  // The failure is sticky: the stream has lost sync for good.
  uint8_t more = 0;
  EXPECT_TRUE(dec.Feed(&more, 1).IsCorruption());
  EXPECT_TRUE(dec.Finish().IsCorruption());
}

TEST(TcpFramingTest, RandomChunkSizesReassembleBitIdentically) {
  // The general case: random chunk sizes from 1 byte to several frames,
  // across several corpora seeds, with a pool recycling payload buffers
  // the way the transport's receiver threads do.
  for (uint64_t seed : {0xa1ULL, 0xb2ULL, 0xc3ULL}) {
    Corpus c = BuildCorpus(seed, 60);
    BufferPool pool;
    FrameDecoder dec(&pool);
    Rng chunk_rng(seed * 7919);
    auto got = DecodeChunked(dec, c.wire, [&chunk_rng](size_t) {
      return static_cast<size_t>(chunk_rng.NextBounded(4096)) + 1;
    });
    ExpectFramesEqual(got, c.frames);
    EXPECT_TRUE(dec.Finish().ok());
    for (auto& msg : got) pool.Release(std::move(msg.payload));
    EXPECT_GT(pool.pooled(), 0u);
  }
}

TEST(TcpFramingTest, DecodedPayloadsDecodeBackToRecords) {
  // End-to-end through both layers: reassembled frame payloads must still
  // decode as record blocks (the decoder delivered bytes, not
  // approximately-bytes).
  Rng rng(0xeeffULL);
  const size_t n = 128;
  std::vector<uint32_t> lids(n);
  std::vector<double> values(n);
  for (size_t k = 0; k < n; ++k) {
    lids[k] = static_cast<uint32_t>(rng.NextUint64());
    values[k] = static_cast<double>(k) * 0.25;
  }
  RecordBlock<double> block;
  for (size_t k = 0; k < n; ++k) block.Append(lids[k], values[k]);
  Encoder enc;
  EncodeRecordBlock(enc, block);
  std::vector<uint8_t> payload = enc.TakeBuffer();
  std::vector<uint8_t> wire(kFrameHeaderBytes + payload.size());
  EncodeFrameHeader(
      FrameHeader{2, 3, 1, static_cast<uint32_t>(payload.size())},
      wire.data());
  std::memcpy(wire.data() + kFrameHeaderBytes, payload.data(),
              payload.size());

  FrameDecoder dec;
  auto got = DecodeChunked(dec, wire, [](size_t at) {
    return at % 3 + 1;  // ragged 1-3 byte chunks
  });
  ASSERT_EQ(got.size(), 1u);
  Decoder payload_dec(got[0].payload.data(), got[0].payload.size());
  std::vector<uint32_t> got_lids;
  std::vector<double> got_values;
  ASSERT_TRUE(DecodeRecordBlock(payload_dec, &got_lids, &got_values).ok());
  EXPECT_EQ(got_lids, lids);
  EXPECT_EQ(std::memcmp(got_values.data(), values.data(),
                        values.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace grape
