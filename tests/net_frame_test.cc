// Wire-format lockdown for the network protocol: committed golden frame
// encodings (the frame layout is a compatibility contract — an accidental
// byte moved breaks every deployed client), strict header validation, and
// the wire extension of the seeded fuzz matrix: thousands of deterministic
// truncate/flip/splice/garbage mutants of real frames must parse to
// kCorrupted or parse cleanly and then fail verification — never crash,
// never verify. A single-bit-flip scan over a full response+VO frame closes
// the gap fuzzing samples: EVERY bit position is flipped once, and the only
// flips a client may accept are in the advisory snapshot_version field —
// with the verified VO bytes still identical to the original's.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/random.h"
#include "core/client.h"
#include "core/owner.h"
#include "core/server.h"
#include "core/vo.h"
#include "net/wire.h"
#include "shard/composite_client.h"
#include "shard/coordinator.h"
#include "shard/planner.h"
#include "workload/synthetic.h"

namespace imageproof {
namespace {

using net::ExtractResult;
using net::FrameHeader;
using net::FrameType;
using net::WireError;

std::string ToHex(const Bytes& b) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(b.size() * 2);
  for (uint8_t c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Golden frames. If one of these fails because you *intentionally* changed
// the wire format, bump kWireVersion and update the constants — that is a
// breaking protocol change (deployed peers reject the new magic/version).
// ---------------------------------------------------------------------------

TEST(GoldenFrameTest, QueryFrame) {
  net::QueryRequest q;
  q.deadline_ms = 1000;
  q.k = 5;
  q.features = {{1.0f, 2.0f}};
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kQuery,
                                   net::EncodeQueryRequest(q))),
            "314e5049010001000f000000e80300000501020000803f00000040");
}

TEST(GoldenFrameTest, ResponseFrame) {
  net::ResponseFrame r;
  r.snapshot_version = 1;
  r.root_signature = {0xAA, 0xBB};
  r.vo_bytes = {0x01, 0x02, 0x03};
  EXPECT_EQ(
      ToHex(net::EncodeFrame(FrameType::kResponse, net::EncodeResponse(r))),
      "314e5049010002000f000000010000000000000002aabb03010203");
}

TEST(GoldenFrameTest, ErrorFrame) {
  net::ErrorFrame e;
  e.code = WireError::kOverloaded;
  e.message = "shed";
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kError, net::EncodeError(e))),
            "314e50490100030006000000020473686564");
}

TEST(GoldenFrameTest, StatusFrames) {
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kStatusRequest, {})),
            "314e50490100040000000000");
  net::StatusReply s;
  s.snapshot_version = 2;
  s.queries_served = 10;
  s.queries_shed = 1;
  s.deadline_exceeded = 3;
  s.rejected_unavailable = 4;
  s.queue_depth = 5;
  s.in_flight = 6;
  s.updates_applied = 7;
  s.stopped = true;
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kStatusReply,
                                   net::EncodeStatusReply(s))),
            "314e5049010005004100000002000000000000000a00000000000000010000000"
            "00000000300000000000000040000000000000005000000000000000600000000"
            "000000070000000000000001");
}

TEST(GoldenFrameTest, UpdateFrames) {
  net::InsertRequest i;
  i.id = 9;
  i.bovw.entries = {{2, 3}, {5, 1}};
  i.image_data = {0xDE, 0xAD};
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kInsert,
                                   net::EncodeInsertRequest(i))),
            "314e5049010006000900000009020203050102dead");
  net::DeleteRequest d;
  d.id = 7;
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kDelete,
                                   net::EncodeDeleteRequest(d))),
            "314e5049010007000100000007");
  net::UpdateAck a;
  a.new_version = 3;
  a.lists_updated = 15;
  a.nodes_rehashed = 887;
  EXPECT_EQ(ToHex(net::EncodeFrame(FrameType::kUpdateAck,
                                   net::EncodeUpdateAck(a))),
            "314e5049010008001800000003000000000000000f0000000000000077030000"
            "00000000");
}

// ---------------------------------------------------------------------------
// Header validation
// ---------------------------------------------------------------------------

TEST(FrameHeaderTest, RoundTrip) {
  Bytes frame = net::EncodeFrame(FrameType::kDelete,
                                 net::EncodeDeleteRequest({7}));
  FrameHeader header;
  ASSERT_TRUE(
      net::DecodeFrameHeader(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kDelete);
  EXPECT_EQ(header.payload_len, frame.size() - net::kFrameHeaderBytes);
}

TEST(FrameHeaderTest, RejectsBadMagicVersionFlagsTypeLength) {
  Bytes good = net::EncodeFrame(FrameType::kStatusRequest, {});
  FrameHeader header;

  Bytes bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);

  bad = good;
  bad[4] = 2;  // version 2 (composite protocol) is known — header decodes
  EXPECT_TRUE(net::DecodeFrameHeader(bad.data(), bad.size(), &header).ok());
  EXPECT_EQ(header.version, 2);
  bad[4] = net::kMaxWireVersion + 1;  // one past the newest known version
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);

  bad = good;
  bad[6] = 0;  // type below range
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);
  bad[6] = 9;  // kCompositeResponse needs the composite version; above
               // range in v1
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);
  bad[4] = 2;  // nor is it legal under the retired version-2 composite format
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);
  bad[4] = net::kWireVersionComposite;  // same type under it is legal
  EXPECT_TRUE(net::DecodeFrameHeader(bad.data(), bad.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kCompositeResponse);
  bad[6] = 10;  // still one past the newest composite-version type
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);

  bad = good;
  bad[7] = 1;  // reserved flags must be zero in v1
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);

  // Oversized length: a hostile peer may not make us reserve 4 GiB.
  bad = good;
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  bad[10] = 0xFF;
  bad[11] = 0xFF;
  EXPECT_EQ(net::DecodeFrameHeader(bad.data(), bad.size(), &header).code(),
            StatusCode::kCorrupted);
}

TEST(FrameHeaderTest, CompositeFlagIsVersionAndTypeGated) {
  // kFrameFlagComposite is only meaningful on a kQuery of the composite
  // version; anywhere else it is a reserved bit and the frame is corrupt.
  net::QueryRequest qr;
  qr.k = 3;
  qr.features = {{1.0f, 2.0f}};
  Bytes q = net::EncodeQueryRequest(qr);
  Bytes v2 = net::EncodeFrame(FrameType::kQuery, q, net::kFrameFlagComposite,
                              net::kWireVersionComposite);
  FrameHeader header;
  ASSERT_TRUE(net::DecodeFrameHeader(v2.data(), v2.size(), &header).ok());
  EXPECT_EQ(header.version, net::kWireVersionComposite);
  EXPECT_EQ(header.flags & net::kFrameFlagComposite, net::kFrameFlagComposite);

  // Same frame downgraded to version 1, or to the retired version-2
  // composite format: the flag becomes reserved.
  Bytes v1 = v2;
  v1[4] = 1;
  EXPECT_EQ(net::DecodeFrameHeader(v1.data(), v1.size(), &header).code(),
            StatusCode::kCorrupted);
  v1[4] = 2;
  EXPECT_EQ(net::DecodeFrameHeader(v1.data(), v1.size(), &header).code(),
            StatusCode::kCorrupted);

  // A version-2 non-query may not carry it either.
  Bytes status = net::EncodeFrame(FrameType::kStatusRequest, {}, 0,
                                  net::kWireVersionComposite);
  status[7] = net::kFrameFlagComposite;
  EXPECT_EQ(
      net::DecodeFrameHeader(status.data(), status.size(), &header).code(),
      StatusCode::kCorrupted);

  // Both query flags together (compressed composite) are legal on v2.
  Bytes both = net::EncodeFrame(
      FrameType::kQuery, q,
      net::kFrameFlagComposite | net::kFrameFlagCompressVo,
      net::kWireVersionComposite);
  EXPECT_TRUE(net::DecodeFrameHeader(both.data(), both.size(), &header).ok());
}

TEST(FrameExtractTest, NeedMoreThenFrameThenPipelined) {
  Bytes frame = net::EncodeFrame(FrameType::kDelete,
                                 net::EncodeDeleteRequest({7}));
  FrameHeader header;
  Bytes payload;
  Status err;

  // Byte-at-a-time arrival: kNeedMore until the last byte lands.
  Bytes buffer;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    buffer.push_back(frame[i]);
    ASSERT_EQ(net::TryExtractFrame(&buffer, &header, &payload, &err),
              ExtractResult::kNeedMore)
        << "at byte " << i;
  }
  buffer.push_back(frame.back());
  ASSERT_EQ(net::TryExtractFrame(&buffer, &header, &payload, &err),
            ExtractResult::kFrame);
  EXPECT_EQ(header.type, FrameType::kDelete);
  EXPECT_TRUE(buffer.empty());

  // Two frames back to back extract in order, leaving nothing behind.
  buffer = frame;
  Bytes second = net::EncodeFrame(FrameType::kStatusRequest, {});
  buffer.insert(buffer.end(), second.begin(), second.end());
  ASSERT_EQ(net::TryExtractFrame(&buffer, &header, &payload, &err),
            ExtractResult::kFrame);
  EXPECT_EQ(header.type, FrameType::kDelete);
  ASSERT_EQ(net::TryExtractFrame(&buffer, &header, &payload, &err),
            ExtractResult::kFrame);
  EXPECT_EQ(header.type, FrameType::kStatusRequest);
  EXPECT_TRUE(buffer.empty());
}

TEST(FrameExtractTest, CorruptPrefixDetectedBeforeFullHeader) {
  // A buffer that can never become a valid frame must be rejected as soon
  // as the prefix proves it, not after kMaxFramePayload bytes of buffering.
  Bytes buffer = {0xDE, 0xAD};
  FrameHeader header;
  Bytes payload;
  Status err;
  EXPECT_EQ(net::TryExtractFrame(&buffer, &header, &payload, &err),
            ExtractResult::kCorrupt);
  EXPECT_EQ(err.code(), StatusCode::kCorrupted);
}

// ---------------------------------------------------------------------------
// Payload decoder hardening (hostile lengths/counts, trailing bytes)
// ---------------------------------------------------------------------------

TEST(PayloadHardeningTest, QueryRequestRejectsHostileCounts) {
  net::QueryRequest q;
  q.k = 5;
  q.features = {{1.0f}};
  Bytes payload = net::EncodeQueryRequest(q);

  net::QueryRequest out;
  ASSERT_TRUE(net::DecodeQueryRequest(payload, &out).ok());

  // Feature count inflated far beyond the bytes present.
  Bytes bad = payload;
  bad[5] = 0xFF;  // the varint n byte (deadline u32 + k varint precede it)
  EXPECT_EQ(net::DecodeQueryRequest(bad, &out).code(), StatusCode::kCorrupted);

  // Trailing bytes reject.
  bad = payload;
  bad.push_back(0x00);
  EXPECT_EQ(net::DecodeQueryRequest(bad, &out).code(), StatusCode::kCorrupted);

  // Truncation rejects.
  bad = payload;
  bad.resize(bad.size() - 1);
  EXPECT_EQ(net::DecodeQueryRequest(bad, &out).code(), StatusCode::kCorrupted);
}

TEST(PayloadHardeningTest, ResponseRejectsOverhangingBlobLengths) {
  net::ResponseFrame r;
  r.snapshot_version = 1;
  r.root_signature = {0xAA};
  r.vo_bytes = {0x01, 0x02};
  Bytes payload = net::EncodeResponse(r);
  net::ResponseFrame out;
  ASSERT_TRUE(net::DecodeResponse(payload, &out).ok());

  // Signature length prefix inflated past the buffer: must reject before
  // allocating, not allocate-then-fail.
  Bytes bad = payload;
  bad[8] = 0xFF;
  EXPECT_EQ(net::DecodeResponse(bad, &out).code(), StatusCode::kCorrupted);
}

TEST(PayloadHardeningTest, ErrorFrameRejectsUnknownCodeAndHugeMessage) {
  net::ErrorFrame e;
  e.code = WireError::kOverloaded;
  e.message = "x";
  Bytes payload = net::EncodeError(e);
  net::ErrorFrame out;
  ASSERT_TRUE(net::DecodeError(payload, &out).ok());

  Bytes bad = payload;
  bad[0] = 0;  // below range
  EXPECT_EQ(net::DecodeError(bad, &out).code(), StatusCode::kCorrupted);
  bad[0] = 7;  // above range
  EXPECT_EQ(net::DecodeError(bad, &out).code(), StatusCode::kCorrupted);

  // A message length prefix beyond kMaxErrorMessage rejects even if the
  // bytes were actually present.
  net::ErrorFrame huge;
  huge.code = WireError::kInternal;
  huge.message.assign(net::kMaxErrorMessage + 100, 'a');
  Bytes encoded = net::EncodeError(huge);  // encoder truncates
  ASSERT_TRUE(net::DecodeError(encoded, &out).ok());
  EXPECT_EQ(out.message.size(), net::kMaxErrorMessage);
}

TEST(PayloadHardeningTest, StatusReplyRejectsNonCanonicalBool) {
  net::StatusReply s;
  Bytes payload = net::EncodeStatusReply(s);
  net::StatusReply out;
  ASSERT_TRUE(net::DecodeStatusReply(payload, &out).ok());
  Bytes bad = payload;
  bad.back() = 2;  // bools decode strictly: only 0 or 1
  EXPECT_EQ(net::DecodeStatusReply(bad, &out).code(), StatusCode::kCorrupted);
}

TEST(PayloadHardeningTest, InsertRejectsUnsortedAndZeroFrequency) {
  net::InsertRequest i;
  i.id = 1;
  i.bovw.entries = {{2, 3}, {5, 1}};
  i.image_data = {0x00};
  Bytes good = net::EncodeInsertRequest(i);
  net::InsertRequest out;
  ASSERT_TRUE(net::DecodeInsertRequest(good, &out).ok());

  net::InsertRequest unsorted = i;
  unsorted.bovw.entries = {{5, 1}, {2, 3}};
  EXPECT_EQ(
      net::DecodeInsertRequest(net::EncodeInsertRequest(unsorted), &out).code(),
      StatusCode::kCorrupted);

  net::InsertRequest zero_freq = i;
  zero_freq.bovw.entries = {{2, 0}};
  EXPECT_EQ(net::DecodeInsertRequest(net::EncodeInsertRequest(zero_freq), &out)
                .code(),
            StatusCode::kCorrupted);
}

// ---------------------------------------------------------------------------
// Seeded wire fuzz matrix + exhaustive single-bit-flip scan
// ---------------------------------------------------------------------------

size_t FuzzIters() {
  if (const char* env = std::getenv("IMAGEPROOF_FUZZ_ITERS")) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 6000;
}

// Same mutation kernel as tests/fuzz_deser_test.cc: truncate, flip 1..8
// bits, splice with a foreign valid message, garbage runs.
Bytes Mutate(const Bytes& base, const Bytes& foreign, Rng& rng) {
  Bytes out = base;
  switch (rng.NextBounded(4)) {
    case 0: {
      if (!out.empty()) out.resize(rng.NextBounded(out.size()));
      break;
    }
    case 1: {
      if (out.empty()) break;
      size_t flips = 1 + rng.NextBounded(8);
      for (size_t f = 0; f < flips; ++f) {
        out[rng.NextBounded(out.size())] ^=
            static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 2: {
      if (out.empty() || foreign.empty()) break;
      size_t cut = rng.NextBounded(out.size());
      size_t fcut = rng.NextBounded(foreign.size());
      out.resize(cut);
      out.insert(out.end(), foreign.begin() + fcut, foreign.end());
      break;
    }
    default: {
      if (out.empty()) break;
      size_t start = rng.NextBounded(out.size());
      size_t len = 1 + rng.NextBounded(32);
      for (size_t i = start; i < out.size() && i < start + len; ++i) {
        out[i] = static_cast<uint8_t>(rng.NextU64());
      }
      break;
    }
  }
  return out;
}

class WireFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 40;
    cp.num_clusters = 32;
    cp.seed = 5;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 32;
    cbp.dims = 8;
    owner_ = core::BuildDeployment(config, workload::GenerateCodebook(cbp),
                                   std::move(corpus), std::move(blobs));

    core::ServiceProvider sp(owner_.package.get());
    features_ = workload::GenerateQueryFeatures(owner_.package->codebook, 6,
                                                0.3, 17);
    core::QueryResponse resp = sp.Query(features_, 3);

    net::ResponseFrame rf;
    rf.snapshot_version = 0;
    rf.root_signature = owner_.public_params.root_signature;
    rf.vo_bytes = resp.vo.Serialize();
    response_frame_ = net::EncodeFrame(FrameType::kResponse,
                                       net::EncodeResponse(rf));

    auto foreign_features =
        workload::GenerateQueryFeatures(owner_.package->codebook, 6, 0.3, 91);
    net::ResponseFrame ff;
    ff.snapshot_version = 0;
    ff.root_signature = owner_.public_params.root_signature;
    ff.vo_bytes = sp.Query(foreign_features, 3).vo.Serialize();
    foreign_response_frame_ = net::EncodeFrame(FrameType::kResponse,
                                               net::EncodeResponse(ff));

    net::QueryRequest qr;
    qr.deadline_ms = 100;
    qr.k = 3;
    qr.features = features_;
    query_frame_ = net::EncodeFrame(FrameType::kQuery,
                                    net::EncodeQueryRequest(qr));
    net::QueryRequest fq;
    fq.deadline_ms = 100;
    fq.k = 3;
    fq.features = foreign_features;
    foreign_query_frame_ = net::EncodeFrame(FrameType::kQuery,
                                            net::EncodeQueryRequest(fq));
  }

  // The full client-side response path under mutation: extract the frame,
  // decode the payload, deserialize the VO, verify. Returns true when the
  // mutant was ACCEPTED end to end; *accepted then holds the verified
  // results. Callers assert acceptance is harmless — the verified results
  // must be identical to the honest baseline's (mutations confined to
  // advisory bytes, or to proof bytes with no semantic weight, like the
  // low-order mantissa bits of an SP-chosen threshold).
  bool ClientAccepts(Bytes mutant, core::VerifiedResults* accepted) {
    FrameHeader header;
    Bytes payload;
    Status err;
    ExtractResult er = net::TryExtractFrame(&mutant, &header, &payload, &err);
    if (er != ExtractResult::kFrame) {
      // kCorrupt is the usual outcome; kNeedMore happens when the mutation
      // inflated the length field (the buffer is now a valid prefix of a
      // longer frame — on a live connection the client would keep waiting
      // and time out, never accept). Both reject.
      if (er == ExtractResult::kCorrupt) {
        EXPECT_EQ(err.code(), StatusCode::kCorrupted);
      }
      return false;
    }
    if (header.type != FrameType::kResponse) return false;
    net::ResponseFrame rf;
    Status st = net::DecodeResponse(payload, &rf);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorrupted);
      return false;
    }
    core::QueryVO vo;
    st = core::QueryVO::Deserialize(rf.vo_bytes, &vo);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorrupted);
      return false;
    }
    core::PublicParams params = owner_.public_params;
    params.root_signature = rf.root_signature;
    core::Client client(std::move(params));
    auto verified = client.Verify(features_, 3, vo);
    if (!verified.ok()) return false;
    if (accepted != nullptr) *accepted = std::move(verified).value();
    return true;
  }

  // "Zero undetected corruptions": anything the client accepts must hand
  // the application exactly what the honest response would have — same
  // result ids, same verified score bounds, same image bytes.
  static void ExpectSameResults(const core::VerifiedResults& got,
                                const core::VerifiedResults& want,
                                size_t iteration) {
    ASSERT_EQ(got.topk.size(), want.topk.size()) << "iteration " << iteration;
    for (size_t i = 0; i < want.topk.size(); ++i) {
      ASSERT_EQ(got.topk[i].id, want.topk[i].id) << "iteration " << iteration;
      ASSERT_EQ(got.topk[i].score, want.topk[i].score)
          << "iteration " << iteration;
    }
    ASSERT_EQ(got.images, want.images) << "iteration " << iteration;
  }

  core::OwnerOutput owner_;
  std::vector<std::vector<float>> features_;
  Bytes response_frame_, foreign_response_frame_;
  Bytes query_frame_, foreign_query_frame_;
};

TEST_F(WireFuzzTest, MutatedResponseFramesNeverVerifyCorrupted) {
  core::VerifiedResults baseline;
  ASSERT_TRUE(ClientAccepts(response_frame_, &baseline));

  const size_t iters = FuzzIters() / 2;
  Rng rng(0x51BEF00D);
  size_t accepted = 0;
  for (size_t i = 0; i < iters; ++i) {
    core::VerifiedResults got;
    if (ClientAccepts(Mutate(response_frame_, foreign_response_frame_, rng),
                      &got)) {
      ExpectSameResults(got, baseline, i);
      ++accepted;
    }
  }
  // Sanity: the matrix is not vacuous — the vast majority of mutants must
  // be rejected (acceptance requires an untouched VO + signature).
  EXPECT_LT(accepted, iters / 10);
}

TEST_F(WireFuzzTest, MutatedQueryFramesNeverCrashServerDecoder) {
  // The server-side path: extract + decode. Every mutant either fails
  // cleanly (kCorrupted) or yields a structurally valid request — counts
  // within bounds, no overhang — that the engine could serve.
  const size_t iters = FuzzIters() / 2;
  Rng rng(0x5EEDF00D);
  size_t parsed = 0;
  for (size_t i = 0; i < iters; ++i) {
    Bytes mutant = Mutate(query_frame_, foreign_query_frame_, rng);
    FrameHeader header;
    Bytes payload;
    Status err;
    ExtractResult er = net::TryExtractFrame(&mutant, &header, &payload, &err);
    if (er != ExtractResult::kFrame) continue;
    if (header.type != FrameType::kQuery) continue;
    net::QueryRequest req;
    Status st = net::DecodeQueryRequest(payload, &req);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorrupted) << "iteration " << i;
      continue;
    }
    ++parsed;
    EXPECT_LE(req.features.size(), net::kMaxQueryFeatures);
    for (const auto& f : req.features) {
      EXPECT_LE(f.size(), net::kMaxFeatureDims);
    }
  }
  // Bit flips inside float coordinates still parse — that is fine (the
  // request is well-formed, just a different query); this asserts the
  // decoder survived all of them.
  EXPECT_LE(parsed, iters);
}

TEST_F(WireFuzzTest, SingleBitFlipScanOverResponseFrame) {
  // Exhaustive, not sampled: flip every bit of the full response+VO frame
  // once. Every accepted flip must be UNDETECTABLE BY CONSTRUCTION — the
  // verified results identical to the honest baseline's. That covers the
  // advisory snapshot_version field (authenticated by nothing, all 64 of
  // its flips accepted) and proof bytes without semantic weight (low-order
  // mantissa bits of SP-chosen thresholds that alter no replay decision).
  // No flip may ever change what the application receives: that would be
  // an undetected corruption, and the scan fails the build.
  core::VerifiedResults baseline;
  ASSERT_TRUE(ClientAccepts(response_frame_, &baseline));
  const size_t version_begin = net::kFrameHeaderBytes;
  const size_t version_end = version_begin + 8;

  size_t accepted = 0, accepted_in_version = 0;
  for (size_t byte = 0; byte < response_frame_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutant = response_frame_;
      mutant[byte] ^= static_cast<uint8_t>(1u << bit);
      core::VerifiedResults got;
      if (ClientAccepts(std::move(mutant), &got)) {
        ExpectSameResults(got, baseline, byte * 8 + bit);
        ++accepted;
        if (byte >= version_begin && byte < version_end) ++accepted_in_version;
      }
    }
  }
  // Every snapshot_version flip IS accepted (the field is advisory, and
  // nothing else in the frame changed) — 8 bytes x 8 bits.
  EXPECT_EQ(accepted_in_version, 64u);
  // And acceptance stays confined to a sliver of the frame: the scan is
  // meaningful only if the overwhelming majority of flips are caught.
  EXPECT_LT(accepted, response_frame_.size() * 8 / 100);
}

// Composite response frames (kWireVersionComposite) of a tiny two-shard
// deployment, through the client's whole path: extract, decode, verify.
class CompositeWireFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Config config = core::Config::ImageProof();
    config.rsa_bits = 512;
    workload::CorpusParams cp;
    cp.num_images = 40;
    cp.num_clusters = 32;
    cp.seed = 5;
    auto corpus = workload::GenerateCorpus(cp);
    std::unordered_map<bovw::ImageId, Bytes> blobs;
    for (const auto& [id, v] : corpus) {
      blobs[id] = workload::GenerateImageBlob(id);
    }
    workload::CodebookParams cbp;
    cbp.num_clusters = 32;
    cbp.dims = 8;
    ann::PointSet codebook = workload::GenerateCodebook(cbp);
    shard::ShardedDeployment dep =
        shard::ShardPlanner::Build(config, codebook, corpus, blobs, 2);
    base_ = dep.shards[0].public_params;
    std::vector<std::unique_ptr<shard::ShardBackend>> backends;
    for (core::OwnerOutput& s : dep.shards) {
      backends.push_back(std::make_unique<shard::LocalShardBackend>(
          std::shared_ptr<const core::SpPackage>(std::move(s.package)),
          s.public_params, dep.keys.private_key));
    }
    shard::Coordinator coord(std::move(backends), dep.manifest,
                             dep.keys.private_key, {});
    features_ = workload::GenerateQueryFeatures(codebook, 6, 0.3, 17);
    Result<Bytes> honest = coord.Query(features_, 3);
    Result<Bytes> foreign =
        coord.Query(workload::GenerateQueryFeatures(codebook, 6, 0.3, 91), 3);
    ASSERT_TRUE(honest.ok() && foreign.ok());
    frame_ = net::EncodeFrame(FrameType::kCompositeResponse, *honest, 0,
                              net::kWireVersionComposite);
    foreign_frame_ = net::EncodeFrame(FrameType::kCompositeResponse, *foreign,
                                      0, net::kWireVersionComposite);
  }

  bool ClientAccepts(Bytes mutant,
                     shard::CompositeVerifiedResults* accepted) const {
    FrameHeader header;
    Bytes payload;
    Status err;
    ExtractResult er = net::TryExtractFrame(&mutant, &header, &payload, &err);
    if (er != ExtractResult::kFrame) {
      if (er == ExtractResult::kCorrupt) {
        EXPECT_EQ(err.code(), StatusCode::kCorrupted);
      }
      return false;
    }
    if (header.type != FrameType::kCompositeResponse) return false;
    shard::CompositeClient client(base_);
    auto verified = client.VerifyComposite(features_, 3, payload);
    if (!verified.ok()) return false;
    if (accepted != nullptr) *accepted = std::move(verified).value();
    return true;
  }

  static void ExpectSame(const shard::CompositeVerifiedResults& got,
                         const shard::CompositeVerifiedResults& want,
                         size_t iteration) {
    ASSERT_EQ(got.topk.size(), want.topk.size()) << "iteration " << iteration;
    for (size_t i = 0; i < want.topk.size(); ++i) {
      ASSERT_EQ(got.topk[i].id, want.topk[i].id) << "iteration " << iteration;
      ASSERT_EQ(got.topk[i].score, want.topk[i].score)
          << "iteration " << iteration;
    }
    ASSERT_EQ(got.images, want.images) << "iteration " << iteration;
  }

  core::PublicParams base_;
  std::vector<std::vector<float>> features_;
  Bytes frame_, foreign_frame_;
};

TEST_F(CompositeWireFuzzTest, MutatedCompositeFramesNeverVerifyCorrupted) {
  shard::CompositeVerifiedResults baseline;
  ASSERT_TRUE(ClientAccepts(frame_, &baseline));
  const size_t iters = FuzzIters() / 2;
  Rng rng(0xC0FFEE);
  size_t accepted = 0;
  for (size_t i = 0; i < iters; ++i) {
    shard::CompositeVerifiedResults got;
    if (ClientAccepts(Mutate(frame_, foreign_frame_, rng), &got)) {
      ExpectSame(got, baseline, i);
      ++accepted;
    }
  }
  EXPECT_LT(accepted, iters / 10);
}

TEST_F(CompositeWireFuzzTest, SingleBitFlipScanOverCompositeFrame) {
  // Every bit of the frame flipped once. Accepted flips must leave the
  // verified answer untouched — the advisory per-entry snapshot_version
  // fields, and proof bytes without semantic weight.
  shard::CompositeVerifiedResults baseline;
  ASSERT_TRUE(ClientAccepts(frame_, &baseline));
  size_t accepted = 0;
  for (size_t byte = 0; byte < frame_.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes mutant = frame_;
      mutant[byte] ^= static_cast<uint8_t>(1u << bit);
      shard::CompositeVerifiedResults got;
      if (ClientAccepts(std::move(mutant), &got)) {
        ExpectSame(got, baseline, byte * 8 + bit);
        ++accepted;
      }
    }
  }
  // Two entries' snapshot versions: 2 x 64 bits at least.
  EXPECT_GE(accepted, 128u);
  EXPECT_LT(accepted, frame_.size() * 8 / 100);
}

}  // namespace
}  // namespace imageproof
