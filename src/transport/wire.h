// Length-prefixed wire format of the removed multi-process round backend
// (DESIGN.md "Multi-process execution (removed)"). Nothing in src/ speaks
// it any more; it stays as a standalone codec, exercised by
// tests/test_wire.cpp and by the exec'd protocol harness tools/ampc_worker
// over the rings in shm_ring.h.
//
// Every message is one frame:
//
//   [u32 payload_len][u8 kind][payload_len bytes of payload]
//
// with all integers in host byte order — the wire never leaves one box (a
// POSIX shared-memory ring between processes of one machine), so the format
// trades portability for memcpy-speed encode/decode. Payloads are packed
// field by field (no struct punning), so the layout is identical across
// translation units regardless of padding rules.
//
// Frame kinds and payloads:
//
//   kPutBatch      u32 table  u64 machine  u32 count  u8 ksize  u8 vsize
//                  u16 reserved, then count * (ksize + vsize) bytes of
//                  key/value pairs: one machine's staged writes to one
//                  table. Large batches split into multiple frames
//                  (encode_put_frames), applied in arrival order.
//   kMachineDone   u64 machine  u64 reads  u64 writes  u64 faults_delta —
//                  the machine finished; its traffic plus any slow-machine
//                  faults injected while it ran.
//   kDriverBlob    u64 machine  u64 size, then size bytes — an opaque
//                  per-machine payload for the receiving side.
//   kRoundBarrier  u64 worker  u64 machines_run — the worker completed its
//                  whole machine range and is about to exit 0.
//   kWorkerError   u64 machine  u64 faults_delta  u32 code  u32 msg_len,
//                  then msg_len bytes — sent immediately before the worker
//                  process exits non-zero (machine failure, budget, bug).
//   kReadRequest   u32 table  u64 machine  u32 ksize, then key bytes.
//   kReadReply     u32 found  u32 vsize, then value bytes.
//
// Malformed input (truncated buffer, unknown kind, length overflow,
// inconsistent batch sizes) throws TransportError (support/errors.h) — the
// decoder never trusts a byte it has not bounds-checked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "support/errors.h"

namespace ampccut::transport {

enum class FrameKind : std::uint8_t {
  kPutBatch = 1,
  kMachineDone = 2,
  kDriverBlob = 3,
  kRoundBarrier = 4,
  kWorkerError = 5,
  kReadRequest = 6,
  kReadReply = 7,
};

// Frame header: u32 length + u8 kind.
inline constexpr std::size_t kFrameHeaderBytes = 5;
// Hard ceiling on one frame's payload. Large put batches are chunked below
// this by the encoder; the decoder rejects anything above it as corrupt
// before trusting the length to index memory.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;

// Decoded view into a frame inside a caller-owned buffer (no copy).
struct FrameView {
  FrameKind kind = FrameKind::kRoundBarrier;
  const std::uint8_t* payload = nullptr;
  std::uint32_t size = 0;
};

// --- Primitive writers ------------------------------------------------------

inline void append_u8(std::vector<std::uint8_t>* out, std::uint8_t v) {
  out->push_back(v);
}
inline void append_u16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}
inline void append_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}
inline void append_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  const std::size_t at = out->size();
  out->resize(at + sizeof(v));
  std::memcpy(out->data() + at, &v, sizeof(v));
}
inline void append_bytes(std::vector<std::uint8_t>* out, const void* data,
                         std::size_t n) {
  const std::size_t at = out->size();
  out->resize(at + n);
  if (n != 0) std::memcpy(out->data() + at, data, n);
}

// --- Bounds-checked cursor reader ------------------------------------------

class WireCursor {
 public:
  WireCursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const { return size_ - at_; }

  std::uint8_t u8() { return *take(1); }
  std::uint16_t u16() {
    std::uint16_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }
  const std::uint8_t* bytes(std::size_t n) { return take(n); }

  void expect_exhausted(const char* what) const {
    if (at_ != size_) {
      throw TransportError(std::string("wire: trailing bytes after ") + what);
    }
  }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (size_ - at_ < n) {
      throw TransportError("wire: truncated frame payload (needed " +
                           std::to_string(n) + " bytes, " +
                           std::to_string(size_ - at_) + " left)");
    }
    const std::uint8_t* p = data_ + at_;
    at_ += n;
    return p;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

// --- Frame encode / decode --------------------------------------------------

// Appends one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>* out, FrameKind kind,
                  const std::uint8_t* payload, std::size_t size);

// Decodes the frame starting at data[0]. Returns the bytes consumed
// (header + payload) and fills `*out` with a view into `data`. Returns 0 if
// fewer than a whole frame's bytes are available (callers stream from a
// ring, so a short read means "wait for more"), but throws TransportError
// for anything structurally invalid: unknown kind, length above
// kMaxFramePayload.
std::size_t decode_frame(const std::uint8_t* data, std::size_t size,
                         FrameView* out);

// --- Typed payloads ---------------------------------------------------------

struct PutBatch {
  std::uint32_t table = 0;
  std::uint64_t machine = 0;
  std::uint32_t count = 0;
  std::uint8_t key_size = 0;
  std::uint8_t value_size = 0;
  const std::uint8_t* entries = nullptr;  // count * (key_size + value_size)

  [[nodiscard]] std::size_t entry_bytes() const {
    return static_cast<std::size_t>(count) * (key_size + value_size);
  }
};

// Fixed prefix of a kPutBatch payload (everything before the entry bytes).
inline constexpr std::size_t kPutBatchPrefixBytes = 4 + 8 + 4 + 1 + 1 + 2;

void append_put_batch_prefix(std::vector<std::uint8_t>* out,
                             std::uint32_t table, std::uint64_t machine,
                             std::uint32_t count, std::uint8_t key_size,
                             std::uint8_t value_size);
PutBatch decode_put_batch(const std::uint8_t* payload, std::size_t size);

// Per-frame ceiling for encoded put batches: well under kMaxFramePayload so
// ring occupancy (and with it consumer drain latency) stays bounded even
// when one machine's batch is far larger than one ring can hold.
inline constexpr std::size_t kPutChunkBytes = 256u * 1024;

// Serializes key/value pairs as chunked kPutBatch frames appended to `out`.
// Returns the number of frames.
template <class K, class V>
std::uint64_t encode_put_frames(std::uint32_t table_index,
                                std::uint64_t machine,
                                const std::vector<std::pair<K, V>>& pairs,
                                std::vector<std::uint8_t>* out) {
  static_assert(sizeof(K) <= 255 && sizeof(V) <= 255,
                "wire batch entry sizes are u8 fields");
  constexpr std::size_t kEntry = sizeof(K) + sizeof(V);
  constexpr std::size_t kPerFrame =
      (kPutChunkBytes - kPutBatchPrefixBytes) / kEntry;
  static_assert(kPerFrame >= 1);
  std::uint64_t frames = 0;
  std::vector<std::uint8_t> payload;
  for (std::size_t at = 0; at < pairs.size(); at += kPerFrame) {
    const std::size_t n = std::min(kPerFrame, pairs.size() - at);
    payload.clear();
    append_put_batch_prefix(&payload, table_index, machine,
                            static_cast<std::uint32_t>(n),
                            static_cast<std::uint8_t>(sizeof(K)),
                            static_cast<std::uint8_t>(sizeof(V)));
    for (std::size_t i = at; i < at + n; ++i) {
      append_bytes(&payload, &pairs[i].first, sizeof(K));
      append_bytes(&payload, &pairs[i].second, sizeof(V));
    }
    append_frame(out, FrameKind::kPutBatch, payload.data(), payload.size());
    ++frames;
  }
  return frames;
}

struct MachineDone {
  std::uint64_t machine = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t faults_delta = 0;
};

void append_machine_done(std::vector<std::uint8_t>* out, const MachineDone& d);
MachineDone decode_machine_done(const std::uint8_t* payload, std::size_t size);

struct DriverBlob {
  std::uint64_t machine = 0;
  const std::uint8_t* data = nullptr;
  std::uint64_t size = 0;
};

void append_driver_blob(std::vector<std::uint8_t>* out, std::uint64_t machine,
                        const std::uint8_t* data, std::uint64_t size);
DriverBlob decode_driver_blob(const std::uint8_t* payload, std::size_t size);

struct RoundBarrier {
  std::uint64_t worker = 0;
  std::uint64_t machines_run = 0;
};

void append_round_barrier(std::vector<std::uint8_t>* out,
                          const RoundBarrier& b);
RoundBarrier decode_round_barrier(const std::uint8_t* payload,
                                  std::size_t size);

// Worker exit codes paired with kWorkerError frames. Values stay clear of
// 0 (success), 124 (timeout(1)) and shell conventions so a dead worker's
// status decodes loudly.
inline constexpr int kWorkerExitMachineFailed = 86;  // MachineFailedError
inline constexpr int kWorkerExitBudget = 87;         // BudgetExceededError
inline constexpr int kWorkerExitInternal = 88;       // any other exception

struct WorkerError {
  std::uint64_t machine = 0;
  std::uint64_t faults_delta = 0;
  std::uint32_t code = 0;  // the exit code the worker is about to die with
  std::string message;
};

void append_worker_error(std::vector<std::uint8_t>* out, const WorkerError& e);
WorkerError decode_worker_error(const std::uint8_t* payload, std::size_t size);

struct ReadRequest {
  std::uint32_t table = 0;
  std::uint64_t machine = 0;
  const std::uint8_t* key = nullptr;
  std::uint32_t key_size = 0;
};

void append_read_request(std::vector<std::uint8_t>* out, std::uint32_t table,
                         std::uint64_t machine, const std::uint8_t* key,
                         std::uint32_t key_size);
ReadRequest decode_read_request(const std::uint8_t* payload, std::size_t size);

struct ReadReply {
  bool found = false;
  const std::uint8_t* value = nullptr;
  std::uint32_t value_size = 0;
};

void append_read_reply(std::vector<std::uint8_t>* out, bool found,
                       const std::uint8_t* value, std::uint32_t value_size);
ReadReply decode_read_reply(const std::uint8_t* payload, std::size_t size);

}  // namespace ampccut::transport
