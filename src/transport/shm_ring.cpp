// POSIX shared-memory segment and SPSC byte ring (shm_ring.h).
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <new>

#include "support/errors.h"
#include "transport/shm_ring.h"

namespace ampccut::transport {

namespace {

// Producer-side full-ring spin budget (sched_yield per iteration). The
// consumer polls every ~100us, so hitting this means it is gone.
constexpr std::uint64_t kMaxWriteSpins = std::uint64_t{1} << 24;
constexpr std::size_t kRingHeaderBytes = 128;  // cursor cacheline separation

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

// --- ShmRegion --------------------------------------------------------------

ShmRegion ShmRegion::create(std::size_t size) {
  // Unique-name generation: pid + a process-local counter. No randomness —
  // collisions are impossible within a process and O_EXCL rejects the
  // stale-name case across processes (retry with the next counter value).
  static std::atomic<std::uint64_t> counter{0};
  for (int tries = 0; tries < 64; ++tries) {
    const std::uint64_t c = counter.fetch_add(1, std::memory_order_relaxed);
    std::string name = "/ampccut-" + std::to_string(::getpid()) + "-" +
                       std::to_string(c);
    const int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd < 0) {
      if (errno == EEXIST) continue;
      throw TransportError(errno_text("shm_open failed"));
    }
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      const std::string err = errno_text("ftruncate on shm segment failed");
      ::close(fd);
      ::shm_unlink(name.c_str());
      throw TransportError(err);
    }
    void* mem = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd,
                       0);
    ::close(fd);
    if (mem == MAP_FAILED) {
      ::shm_unlink(name.c_str());
      throw TransportError(errno_text("mmap of shm segment failed"));
    }
    ShmRegion r;
    r.data_ = mem;
    r.size_ = size;
    r.name_ = std::move(name);
    r.owns_name_ = true;
    return r;
  }
  throw TransportError("shm_open: could not find a free segment name");
}

ShmRegion ShmRegion::open_named(const std::string& name, std::size_t size) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) {
    throw TransportError(errno_text("shm_open of '" + name + "' failed"));
  }
  void* mem =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    throw TransportError(errno_text("mmap of '" + name + "' failed"));
  }
  ShmRegion r;
  r.data_ = mem;
  r.size_ = size;
  r.name_ = name;
  r.owns_name_ = false;
  return r;
}

ShmRegion::ShmRegion(ShmRegion&& other) noexcept
    : data_(other.data_), size_(other.size_), name_(std::move(other.name_)),
      owns_name_(other.owns_name_) {
  other.data_ = nullptr;
  other.size_ = 0;
  other.owns_name_ = false;
}

ShmRegion& ShmRegion::operator=(ShmRegion&& other) noexcept {
  if (this != &other) {
    this->~ShmRegion();
    new (this) ShmRegion(std::move(other));
  }
  return *this;
}

ShmRegion::~ShmRegion() {
  if (data_ != nullptr) ::munmap(data_, size_);
  if (owns_name_) ::shm_unlink(name_.c_str());
}

void ShmRegion::unlink() {
  if (owns_name_) {
    ::shm_unlink(name_.c_str());
    owns_name_ = false;
  }
}

// --- ShmRing ----------------------------------------------------------------

std::size_t ShmRing::region_bytes(std::size_t capacity) {
  return kRingHeaderBytes + capacity;
}

ShmRing::ShmRing(void* mem, std::size_t bytes, bool init)
    : header_(static_cast<Header*>(mem)),
      buf_(static_cast<std::uint8_t*>(mem) + kRingHeaderBytes),
      capacity_(bytes - kRingHeaderBytes) {
  if (bytes <= kRingHeaderBytes) {
    throw TransportError("shm ring region too small for its header");
  }
  if (init) {
    header_->head.store(0, std::memory_order_relaxed);
    header_->tail.store(0, std::memory_order_release);
  }
}

void ShmRing::write(const std::uint8_t* data, std::size_t n) {
  if (n > capacity_) {
    throw TransportError("shm ring write of " + std::to_string(n) +
                         " bytes exceeds ring capacity " +
                         std::to_string(capacity_));
  }
  std::size_t written = 0;
  std::uint64_t spins = 0;
  while (written < n) {
    const std::uint64_t head = header_->head.load(std::memory_order_acquire);
    const std::uint64_t tail = header_->tail.load(std::memory_order_relaxed);
    const std::size_t free = capacity_ - static_cast<std::size_t>(tail - head);
    if (free == 0) {
      if (++spins > kMaxWriteSpins) {
        throw TransportError(
            "shm ring stayed full too long — consumer stopped draining");
      }
      ::sched_yield();
      continue;
    }
    spins = 0;
    const std::size_t chunk = std::min(free, n - written);
    const std::size_t pos = static_cast<std::size_t>(tail % capacity_);
    const std::size_t first = std::min(chunk, capacity_ - pos);
    std::memcpy(buf_ + pos, data + written, first);
    std::memcpy(buf_, data + written + first, chunk - first);
    header_->tail.store(tail + chunk, std::memory_order_release);
    written += chunk;
  }
}

std::size_t ShmRing::read_some(std::vector<std::uint8_t>* out) {
  const std::uint64_t head = header_->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = header_->tail.load(std::memory_order_acquire);
  const std::size_t avail = static_cast<std::size_t>(tail - head);
  if (avail == 0) return 0;
  const std::size_t pos = static_cast<std::size_t>(head % capacity_);
  const std::size_t first = std::min(avail, capacity_ - pos);
  const std::size_t at = out->size();
  out->resize(at + avail);
  std::memcpy(out->data() + at, buf_ + pos, first);
  std::memcpy(out->data() + at + first, buf_, avail - first);
  header_->head.store(head + avail, std::memory_order_release);
  return avail;
}

void ShmRing::reset() {
  header_->head.store(0, std::memory_order_relaxed);
  header_->tail.store(0, std::memory_order_release);
}

}  // namespace ampccut::transport
