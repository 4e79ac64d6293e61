// Shared-memory ring (src/transport/shm_ring.h): frames round-trip through a
// real shm segment, a producer thread can push far more than the ring's
// capacity while the consumer drains concurrently, and reset empties the
// ring. Suite name Transport* is in the tsan preset filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "transport/shm_ring.h"

namespace ampccut::transport {
namespace {

// ---------------------------------------------------------------------------
// Shared-memory ring

TEST(TransportRing, RoundTripsFramesThroughSharedMemory) {
  ShmRegion region = ShmRegion::create(ShmRing::region_bytes(1 << 12));
  ASSERT_TRUE(region.valid());
  ShmRing ring(region.data(), region.size(), /*init=*/true);
  const std::string msg = "forty-two bytes of perfectly ordinary payload";
  ring.write(reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size());
  std::vector<std::uint8_t> out;
  EXPECT_EQ(ring.read_some(&out), msg.size());
  EXPECT_EQ(std::string(out.begin(), out.end()), msg);
  EXPECT_EQ(ring.read_some(&out), 0u);  // drained
}

TEST(TransportRing, StreamsMoreThanCapacityWithConcurrentDrain) {
  // A producer thread pushes 8x the ring's capacity while the consumer
  // drains concurrently — the situation every shm round creates when a
  // machine stages more than one ring can hold.
  constexpr std::size_t kCapacity = 1 << 10;
  constexpr std::size_t kTotal = 8 * kCapacity;
  ShmRegion region = ShmRegion::create(ShmRing::region_bytes(kCapacity));
  ShmRing ring(region.data(), region.size(), /*init=*/true);
  std::vector<std::uint8_t> sent(kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    sent[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 8));
  }
  std::thread producer([&] {
    // Uneven chunk sizes exercise the wrap-around split copies.
    std::size_t at = 0;
    std::size_t chunk = 1;
    while (at < kTotal) {
      const std::size_t n = std::min(chunk, kTotal - at);
      ring.write(sent.data() + at, n);
      at += n;
      chunk = (chunk * 7 + 3) % 600 + 1;
    }
  });
  std::vector<std::uint8_t> got;
  while (got.size() < kTotal) {
    ring.read_some(&got);
  }
  producer.join();
  EXPECT_EQ(got, sent);
}

TEST(TransportRing, ResetRestoresAnEmptyRing) {
  ShmRegion region = ShmRegion::create(ShmRing::region_bytes(256));
  ShmRing ring(region.data(), region.size(), /*init=*/true);
  const std::uint8_t byte = 0x5a;
  ring.write(&byte, 1);
  ring.reset();
  std::vector<std::uint8_t> out;
  EXPECT_EQ(ring.read_some(&out), 0u);
}

}  // namespace
}  // namespace ampccut::transport
