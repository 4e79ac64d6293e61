// Wire codec (src/transport/wire.{h,cpp}): differential round-trip coverage
// for every frame kind, plus the rejection paths — truncated buffers at every
// prefix length, unknown kinds, oversized lengths, and internally
// inconsistent batches all throw TransportError rather than reading a byte
// past what they bounds-checked. The fuzz cases are seeded-deterministic
// (SplitMix64), so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/errors.h"
#include "transport/wire.h"

namespace ampccut::transport {
namespace {

// Local SplitMix64 keeps the fuzz inputs reproducible and independent of any
// library RNG's stream layout.
std::uint64_t mix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

FrameView decode_one(const std::vector<std::uint8_t>& buf) {
  FrameView view;
  const std::size_t used = decode_frame(buf.data(), buf.size(), &view);
  EXPECT_EQ(used, buf.size());
  return view;
}

// ---------------------------------------------------------------------------
// Frame layer

TEST(Wire, FrameRoundTripsAllKinds) {
  for (const FrameKind kind :
       {FrameKind::kPutBatch, FrameKind::kMachineDone, FrameKind::kDriverBlob,
        FrameKind::kRoundBarrier, FrameKind::kWorkerError,
        FrameKind::kReadRequest, FrameKind::kReadReply}) {
    const std::uint8_t payload[] = {1, 2, 3, 4, 5};
    std::vector<std::uint8_t> buf;
    append_frame(&buf, kind, payload, sizeof(payload));
    ASSERT_EQ(buf.size(), kFrameHeaderBytes + sizeof(payload));
    const FrameView view = decode_one(buf);
    EXPECT_EQ(view.kind, kind);
    ASSERT_EQ(view.size, sizeof(payload));
    EXPECT_EQ(std::memcmp(view.payload, payload, sizeof(payload)), 0);
  }
}

TEST(Wire, FrameDecodeReturnsZeroOnEveryPartialPrefix) {
  const std::uint8_t payload[] = {10, 20, 30};
  std::vector<std::uint8_t> buf;
  append_frame(&buf, FrameKind::kDriverBlob, payload, sizeof(payload));
  FrameView view;
  // A short read from the ring is "wait for more", never an error — for
  // every proper prefix, including the empty one.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_EQ(decode_frame(buf.data(), n, &view), 0u) << "prefix " << n;
  }
  EXPECT_EQ(decode_frame(buf.data(), buf.size(), &view), buf.size());
}

TEST(Wire, FrameDecodeRejectsUnknownKind) {
  const std::uint8_t payload[] = {1};
  std::vector<std::uint8_t> buf;
  append_frame(&buf, FrameKind::kPutBatch, payload, sizeof(payload));
  buf[4] = 0;  // kind byte below the enum range
  FrameView view;
  EXPECT_THROW(decode_frame(buf.data(), buf.size(), &view), TransportError);
  buf[4] = 200;  // and above it
  EXPECT_THROW(decode_frame(buf.data(), buf.size(), &view), TransportError);
}

TEST(Wire, FrameDecodeRejectsOversizedLength) {
  std::vector<std::uint8_t> buf;
  const std::uint32_t len = kMaxFramePayload + 1;
  append_u32(&buf, len);
  append_u8(&buf, static_cast<std::uint8_t>(FrameKind::kPutBatch));
  FrameView view;
  // The length field is rejected before it is ever used to index memory —
  // the "payload" here doesn't even exist.
  EXPECT_THROW(decode_frame(buf.data(), buf.size(), &view), TransportError);
}

TEST(Wire, FrameStreamDecodesBackToBack) {
  std::vector<std::uint8_t> buf;
  std::vector<std::string> payloads = {"", "a", "bb", "ccc"};
  for (const std::string& p : payloads) {
    append_frame(&buf, FrameKind::kDriverBlob,
                 reinterpret_cast<const std::uint8_t*>(p.data()), p.size());
  }
  std::size_t at = 0;
  for (const std::string& p : payloads) {
    FrameView view;
    const std::size_t used =
        decode_frame(buf.data() + at, buf.size() - at, &view);
    ASSERT_GT(used, 0u);
    EXPECT_EQ(view.size, p.size());
    EXPECT_EQ(std::string(view.payload, view.payload + view.size), p);
    at += used;
  }
  EXPECT_EQ(at, buf.size());
}

// ---------------------------------------------------------------------------
// Typed payloads: round trips at the edges

TEST(Wire, PutBatchRoundTripsIncludingMaxMachineId) {
  const std::uint64_t entries[] = {7, 11, 13, 17};  // two u64/u64 pairs
  std::vector<std::uint8_t> buf;
  append_put_batch_prefix(&buf, /*table=*/0xffffffffu,
                          /*machine=*/~0ull, /*count=*/2, /*key_size=*/8,
                          /*value_size=*/8);
  append_bytes(&buf, entries, sizeof(entries));
  const PutBatch b = decode_put_batch(buf.data(), buf.size());
  EXPECT_EQ(b.table, 0xffffffffu);
  EXPECT_EQ(b.machine, ~0ull);
  EXPECT_EQ(b.count, 2u);
  EXPECT_EQ(b.key_size, 8);
  EXPECT_EQ(b.value_size, 8);
  ASSERT_EQ(b.entry_bytes(), sizeof(entries));
  EXPECT_EQ(std::memcmp(b.entries, entries, sizeof(entries)), 0);
}

TEST(Wire, PutBatchAllowsZeroValueSize) {
  // Zero-length values are legal (a set-typed table ships bare keys); only
  // a zero-size ENTRY with a nonzero count is structurally impossible.
  const std::uint32_t keys[] = {1, 2, 3};
  std::vector<std::uint8_t> buf;
  append_put_batch_prefix(&buf, 0, 0, 3, /*key_size=*/4, /*value_size=*/0);
  append_bytes(&buf, keys, sizeof(keys));
  const PutBatch b = decode_put_batch(buf.data(), buf.size());
  EXPECT_EQ(b.count, 3u);
  EXPECT_EQ(b.value_size, 0);
  EXPECT_EQ(b.entry_bytes(), sizeof(keys));
}

TEST(Wire, PutBatchRejectsCorruptShapes) {
  // Entry bytes shorter than count * entry_size.
  {
    std::vector<std::uint8_t> buf;
    append_put_batch_prefix(&buf, 0, 0, /*count=*/4, 8, 8);
    const std::uint64_t one_entry[] = {1, 2};
    append_bytes(&buf, one_entry, sizeof(one_entry));
    EXPECT_THROW(decode_put_batch(buf.data(), buf.size()), TransportError);
  }
  // Trailing bytes beyond the declared entries.
  {
    std::vector<std::uint8_t> buf;
    append_put_batch_prefix(&buf, 0, 0, /*count=*/1, 8, 8);
    const std::uint64_t entries[] = {1, 2};
    append_bytes(&buf, entries, sizeof(entries));
    append_u8(&buf, 0xee);
    EXPECT_THROW(decode_put_batch(buf.data(), buf.size()), TransportError);
  }
  // Zero-size entries with a nonzero count would make entry_bytes() == 0
  // look complete for ANY count — rejected outright.
  {
    std::vector<std::uint8_t> buf;
    append_put_batch_prefix(&buf, 0, 0, /*count=*/5, 0, 0);
    EXPECT_THROW(decode_put_batch(buf.data(), buf.size()), TransportError);
  }
  // Truncated prefix.
  {
    std::vector<std::uint8_t> buf;
    append_put_batch_prefix(&buf, 0, 0, 1, 8, 8);
    for (std::size_t n = 0; n < kPutBatchPrefixBytes; ++n) {
      EXPECT_THROW(decode_put_batch(buf.data(), n), TransportError)
          << "prefix " << n;
    }
  }
}

TEST(Wire, MachineDoneRoundTrips) {
  const MachineDone d{~0ull, 123456789ull, 987654321ull, 42};
  std::vector<std::uint8_t> buf;
  append_machine_done(&buf, d);
  const MachineDone got = decode_machine_done(buf.data(), buf.size());
  EXPECT_EQ(got.machine, d.machine);
  EXPECT_EQ(got.reads, d.reads);
  EXPECT_EQ(got.writes, d.writes);
  EXPECT_EQ(got.faults_delta, d.faults_delta);
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_THROW(decode_machine_done(buf.data(), n), TransportError);
  }
}

TEST(Wire, DriverBlobRoundTripsIncludingEmpty) {
  for (const char* text : {"", "interval"}) {
    const std::string payload = text;
    std::vector<std::uint8_t> buf;
    append_driver_blob(&buf, /*machine=*/3,
                       reinterpret_cast<const std::uint8_t*>(payload.data()),
                       payload.size());
    const DriverBlob b = decode_driver_blob(buf.data(), buf.size());
    EXPECT_EQ(b.machine, 3u);
    ASSERT_EQ(b.size, payload.size());
    EXPECT_EQ(std::string(b.data, b.data + b.size), payload);
  }
  // A size field larger than the bytes actually present must not be trusted.
  std::vector<std::uint8_t> buf;
  append_u64(&buf, 0);
  append_u64(&buf, 1 << 20);  // declared size, no data follows
  EXPECT_THROW(decode_driver_blob(buf.data(), buf.size()), TransportError);
}

TEST(Wire, RoundBarrierRoundTrips) {
  const RoundBarrier b{7, 31};
  std::vector<std::uint8_t> buf;
  append_round_barrier(&buf, b);
  const RoundBarrier got = decode_round_barrier(buf.data(), buf.size());
  EXPECT_EQ(got.worker, b.worker);
  EXPECT_EQ(got.machines_run, b.machines_run);
  EXPECT_THROW(decode_round_barrier(buf.data(), buf.size() - 1),
               TransportError);
}

TEST(Wire, WorkerErrorRoundTripsMessage) {
  WorkerError e;
  e.machine = 5;
  e.faults_delta = 1;
  e.code = kWorkerExitMachineFailed;
  e.message = "machine 5 failed on round 2 (injected)";
  std::vector<std::uint8_t> buf;
  append_worker_error(&buf, e);
  const WorkerError got = decode_worker_error(buf.data(), buf.size());
  EXPECT_EQ(got.machine, e.machine);
  EXPECT_EQ(got.faults_delta, e.faults_delta);
  EXPECT_EQ(got.code, e.code);
  EXPECT_EQ(got.message, e.message);
  for (std::size_t n = 0; n < buf.size(); ++n) {
    EXPECT_THROW(decode_worker_error(buf.data(), n), TransportError);
  }
}

TEST(Wire, ReadRequestAndReplyRoundTrip) {
  const std::uint64_t key = 0xdeadbeefcafef00dull;
  std::vector<std::uint8_t> buf;
  append_read_request(&buf, /*table=*/2, /*machine=*/9,
                      reinterpret_cast<const std::uint8_t*>(&key),
                      sizeof(key));
  const ReadRequest req = decode_read_request(buf.data(), buf.size());
  EXPECT_EQ(req.table, 2u);
  EXPECT_EQ(req.machine, 9u);
  ASSERT_EQ(req.key_size, sizeof(key));
  EXPECT_EQ(std::memcmp(req.key, &key, sizeof(key)), 0);

  const std::uint64_t value = 77;
  std::vector<std::uint8_t> rbuf;
  append_read_reply(&rbuf, true,
                    reinterpret_cast<const std::uint8_t*>(&value),
                    sizeof(value));
  const ReadReply rep = decode_read_reply(rbuf.data(), rbuf.size());
  EXPECT_TRUE(rep.found);
  ASSERT_EQ(rep.value_size, sizeof(value));
  EXPECT_EQ(std::memcmp(rep.value, &value, sizeof(value)), 0);

  std::vector<std::uint8_t> miss;
  append_read_reply(&miss, false, nullptr, 0);
  const ReadReply none = decode_read_reply(miss.data(), miss.size());
  EXPECT_FALSE(none.found);
  EXPECT_EQ(none.value_size, 0u);
}

// ---------------------------------------------------------------------------
// Differential fuzz: random batches through the chunking encoder
// (encode_put_frames), decoded and compared entry-wise.

TEST(Wire, FuzzPutBatchEncoderDecoderAgree) {
  std::uint64_t seed = 0x5eedull;
  for (int iter = 0; iter < 200; ++iter) {
    const std::uint32_t count = static_cast<std::uint32_t>(mix(seed) % 4000);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    pairs.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      pairs.emplace_back(mix(seed), mix(seed));
    }
    const std::uint32_t table = static_cast<std::uint32_t>(mix(seed));
    const std::uint64_t machine = mix(seed);
    std::vector<std::uint8_t> buf;
    const std::uint64_t frames = encode_put_frames(table, machine, pairs, &buf);
    if (count == 0) {
      EXPECT_EQ(frames, 0u);
      EXPECT_TRUE(buf.empty());
      continue;
    }
    // Decode the stream back and splice the (possibly chunked) entries.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
    std::uint64_t seen_frames = 0;
    std::size_t at = 0;
    while (at < buf.size()) {
      FrameView view;
      const std::size_t used =
          decode_frame(buf.data() + at, buf.size() - at, &view);
      ASSERT_GT(used, 0u);
      ASSERT_EQ(view.kind, FrameKind::kPutBatch);
      const PutBatch b = decode_put_batch(view.payload, view.size);
      EXPECT_EQ(b.table, table);
      EXPECT_EQ(b.machine, machine);
      ASSERT_EQ(b.key_size, 8);
      ASSERT_EQ(b.value_size, 8);
      for (std::uint32_t i = 0; i < b.count; ++i) {
        std::uint64_t k = 0;
        std::uint64_t v = 0;
        std::memcpy(&k, b.entries + static_cast<std::size_t>(i) * 16, 8);
        std::memcpy(&v, b.entries + static_cast<std::size_t>(i) * 16 + 8, 8);
        got.emplace_back(k, v);
      }
      ++seen_frames;
      at += used;
    }
    EXPECT_EQ(seen_frames, frames);
    EXPECT_EQ(got, pairs);
  }
}

// Truncation fuzz: every prefix of a valid multi-frame stream either
// decodes some whole frames and then reports "wait for more" (0), or — for
// payload-level corruption introduced below — throws TransportError. It
// never reads out of bounds (ASan enforces) and never mis-decodes.
TEST(Wire, FuzzTruncationNeverMisdecodes) {
  std::uint64_t seed = 0xfeedull;
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::uint64_t j = 0; j < 1 + mix(seed) % 50; ++j) {
      pairs.emplace_back(mix(seed), mix(seed));
    }
    encode_put_frames(static_cast<std::uint32_t>(i), i, pairs, &buf);
  }
  for (std::size_t cut = 0; cut <= buf.size(); ++cut) {
    std::size_t at = 0;
    for (;;) {
      FrameView view;
      const std::size_t used = decode_frame(buf.data() + at, cut - at, &view);
      if (used == 0) break;  // clean "wait for more" at the cut
      (void)decode_put_batch(view.payload, view.size);
      at += used;
    }
    EXPECT_LE(at, cut);
  }
}

// Random-bytes fuzz on the typed decoders: arbitrary garbage either decodes
// (harmlessly — the bytes happened to form a valid payload) or throws
// TransportError; nothing else escapes, nothing reads out of bounds.
TEST(Wire, FuzzTypedDecodersRejectGarbageSafely) {
  std::uint64_t seed = 0xbadc0deull;
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> junk(mix(seed) % 128);
    for (std::uint8_t& b : junk) b = static_cast<std::uint8_t>(mix(seed));
    const std::uint8_t* p = junk.data();
    const std::size_t n = junk.size();
    try {
      (void)decode_put_batch(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_machine_done(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_driver_blob(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_round_barrier(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_worker_error(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_read_request(p, n);
    } catch (const TransportError&) {
    }
    try {
      (void)decode_read_reply(p, n);
    } catch (const TransportError&) {
    }
  }
}

}  // namespace
}  // namespace ampccut::transport
