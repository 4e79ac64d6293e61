// POSIX shared-memory plumbing: a named segment and a single-producer
// single-consumer byte ring laid over it. Together with the frame codec in
// wire.h this is what remains of the removed multi-process round backend
// (DESIGN.md "Multi-process execution (removed)"); nothing in src/ calls
// it. tools/ampc_worker and tests/test_transport.cpp exercise it across a
// real process boundary and between threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ampccut::transport {

// A shm_open + mmap'd segment. Move-only; unmaps on destruction. The name
// can be unlinked as soon as every process that needs the segment has
// opened it.
class ShmRegion {
 public:
  // Creates a fresh segment under a generated unique name.
  static ShmRegion create(std::size_t size);
  // Attaches to an existing segment by name (exec'd workers).
  static ShmRegion open_named(const std::string& name, std::size_t size);

  ShmRegion() = default;
  ShmRegion(ShmRegion&& other) noexcept;
  ShmRegion& operator=(ShmRegion&& other) noexcept;
  ShmRegion(const ShmRegion&) = delete;
  ShmRegion& operator=(const ShmRegion&) = delete;
  ~ShmRegion();

  [[nodiscard]] void* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] bool valid() const { return data_ != nullptr; }
  // Removes the name from the shm namespace; existing mappings live on.
  void unlink();

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
  std::string name_;
  bool owns_name_ = false;  // created (not opened) and not yet unlinked
};

// Single-producer single-consumer byte ring over a shared-memory segment.
// The producer appends whole frames; the consumer drains concurrently, so a
// ring smaller than the total traffic never deadlocks — the producer spins
// (bounded, with yields) only while the ring is momentarily full.
class ShmRing {
 public:
  // Lays a ring over `region` (init=true zeroes the cursors — exactly one
  // side initializes, before the other attaches).
  ShmRing(void* mem, std::size_t bytes, bool init);

  // Smallest region that gives the ring `capacity` usable bytes.
  static std::size_t region_bytes(std::size_t capacity);

  // Producer: append `n` bytes, spinning while full. Throws TransportError
  // if the consumer stops draining for implausibly long.
  void write(const std::uint8_t* data, std::size_t n);
  // Consumer: move every currently-available byte to the back of `out`.
  // Returns the number of bytes drained (0 = nothing new).
  std::size_t read_some(std::vector<std::uint8_t>* out);
  // Reset to empty (no producer may be alive).
  void reset();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  struct Header {
    std::atomic<std::uint64_t> head;  // consumer cursor (bytes read)
    std::atomic<std::uint64_t> tail;  // producer cursor (bytes written)
  };
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "shared-memory ring cursors must be lock-free");
  Header* header_;
  std::uint8_t* buf_;
  std::size_t capacity_;
};

}  // namespace ampccut::transport
