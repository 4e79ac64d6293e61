// ampc_worker — exec'd wire-protocol conformance harness for the frame codec
// (src/transport/wire.h) and the shared-memory ring (src/transport/
// shm_ring.h).
//
// A worker attaches to the rings by NAME from a freshly exec'd process, with
// no inherited memory, and speaks the full frame vocabulary, including the
// kReadRequest/kReadReply request/reply pair. If the ring layout or wire
// format ever depended on shared process state, this harness is what breaks.
//
//   ampc_worker --serve <in-shm> <out-shm> <capacity> <worker-id>
//       Protocol server: attach to the named rings, announce readiness with
//       a kMachineDone hello, then serve kPutBatch (store), kReadRequest
//       (reply kReadReply) until a kRoundBarrier arrives, which is echoed
//       back with the number of requests served before exiting 0. Malformed
//       input sends kWorkerError and exits 88 (kWorkerExitInternal).
//
//   ampc_worker --self-test
//       Driver side: create the rings, exec a --serve child of this same
//       binary, unlink the names once the hello arrives, then run a scripted
//       exchange (stores, hits, misses, zero-length values, barrier) and
//       verify every reply byte. Exits 0 iff the whole script matched; this
//       mode is registered as the ctest Transport.worker_protocol.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "support/errors.h"
#include "transport/shm_ring.h"
#include "transport/wire.h"

namespace ampccut::transport {
namespace {

void sleep_100us() {
  timespec ts{0, 100'000};
  nanosleep(&ts, nullptr);
}

// The typed append_* helpers emit payload bytes only; everything on a ring
// travels framed.
void send_frame(ShmRing& ring, FrameKind kind,
                const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  append_frame(&frame, kind, payload.data(), payload.size());
  ring.write(frame.data(), frame.size());
}

// Pull frames out of a streaming buffer: calls fn(view) for each complete
// frame, then compacts. Returns bytes consumed this call.
template <class Fn>
void drain_frames(std::vector<std::uint8_t>* buf, const Fn& fn) {
  std::size_t at = 0;
  for (;;) {
    FrameView view;
    const std::size_t used =
        decode_frame(buf->data() + at, buf->size() - at, &view);
    if (used == 0) break;
    fn(view);
    at += used;
  }
  if (at != 0) buf->erase(buf->begin(), buf->begin() + static_cast<long>(at));
}

// --- --serve ----------------------------------------------------------------

[[noreturn]] void serve(const std::string& in_name, const std::string& out_name,
                        std::size_t capacity, std::uint64_t worker_id) {
  ShmRegion in_region =
      ShmRegion::open_named(in_name, ShmRing::region_bytes(capacity));
  ShmRegion out_region =
      ShmRegion::open_named(out_name, ShmRing::region_bytes(capacity));
  ShmRing in(in_region.data(), in_region.size(), /*init=*/false);
  ShmRing out(out_region.data(), out_region.size(), /*init=*/false);
  try {
    // Hello: proves both rings are attached, so the driver may unlink.
    {
      std::vector<std::uint8_t> hello;
      append_machine_done(&hello, MachineDone{worker_id, 0, 0, 0});
      send_frame(out, FrameKind::kMachineDone, hello);
    }
    // table -> key bytes -> value bytes; last write wins (protocol harness —
    // merge semantics are the runtime's job and tested there).
    std::map<std::uint32_t, std::map<std::string, std::vector<std::uint8_t>>>
        store;
    std::uint64_t served = 0;
    bool done = false;
    std::vector<std::uint8_t> buf;
    std::vector<std::uint8_t> reply;
    while (!done) {
      if (in.read_some(&buf) == 0) {
        sleep_100us();
        continue;
      }
      drain_frames(&buf, [&](const FrameView& view) {
        switch (view.kind) {
          case FrameKind::kPutBatch: {
            const PutBatch b = decode_put_batch(view.payload, view.size);
            const std::size_t entry = b.key_size + b.value_size;
            for (std::uint32_t i = 0; i < b.count; ++i) {
              const std::uint8_t* p = b.entries + i * entry;
              std::string key(reinterpret_cast<const char*>(p), b.key_size);
              store[b.table][std::move(key)] = {p + b.key_size, p + entry};
            }
            break;
          }
          case FrameKind::kReadRequest: {
            const ReadRequest r = decode_read_request(view.payload, view.size);
            ++served;
            reply.clear();
            const std::string key(reinterpret_cast<const char*>(r.key),
                                  r.key_size);
            const auto table = store.find(r.table);
            bool found = false;
            if (table != store.end()) {
              const auto hit = table->second.find(key);
              if (hit != table->second.end()) {
                found = true;
                append_read_reply(
                    &reply, true, hit->second.data(),
                    static_cast<std::uint32_t>(hit->second.size()));
              }
            }
            if (!found) append_read_reply(&reply, false, nullptr, 0);
            send_frame(out, FrameKind::kReadReply, reply);
            break;
          }
          case FrameKind::kRoundBarrier: {
            (void)decode_round_barrier(view.payload, view.size);
            reply.clear();
            append_round_barrier(&reply, RoundBarrier{worker_id, served});
            send_frame(out, FrameKind::kRoundBarrier, reply);
            done = true;
            break;
          }
          default:
            throw TransportError(
                "ampc_worker: unexpected frame kind " +
                std::to_string(static_cast<unsigned>(view.kind)));
        }
      });
    }
    _exit(0);
  } catch (const std::exception& e) {
    try {
      WorkerError err;
      err.code = kWorkerExitInternal;
      err.message = e.what();
      std::vector<std::uint8_t> frame;
      append_worker_error(&frame, err);
      send_frame(out, FrameKind::kWorkerError, frame);
    } catch (...) {
      // The error path must not mask the exit code.
    }
    _exit(kWorkerExitInternal);
  }
}

// --- --self-test ------------------------------------------------------------

#define HARNESS_CHECK(cond)                                              \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "ampc_worker self-test FAILED at %s:%d: %s\n", \
                   __FILE__, __LINE__, #cond);                           \
      return 1;                                                          \
    }                                                                    \
  } while (false)

// Blocks until `buf` holds at least one whole frame, draining `ring`.
FrameView next_frame(ShmRing& ring, std::vector<std::uint8_t>* buf,
                     std::size_t* consumed) {
  if (*consumed != 0) {
    buf->erase(buf->begin(), buf->begin() + static_cast<long>(*consumed));
    *consumed = 0;
  }
  for (;;) {
    FrameView view;
    const std::size_t used = decode_frame(buf->data(), buf->size(), &view);
    if (used != 0) {
      *consumed = used;
      return view;
    }
    if (ring.read_some(buf) == 0) sleep_100us();
  }
}

int self_test(const char* argv0) {
  constexpr std::size_t kCapacity = 1 << 14;
  ShmRegion to_worker = ShmRegion::create(ShmRing::region_bytes(kCapacity));
  ShmRegion from_worker = ShmRegion::create(ShmRing::region_bytes(kCapacity));
  ShmRing out(to_worker.data(), to_worker.size(), /*init=*/true);
  ShmRing in(from_worker.data(), from_worker.size(), /*init=*/true);

  const std::string cap = std::to_string(kCapacity);
  const pid_t pid = fork();
  HARNESS_CHECK(pid >= 0);
  if (pid == 0) {
    execl(argv0, argv0, "--serve", to_worker.name().c_str(),
          from_worker.name().c_str(), cap.c_str(), "7",
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  std::vector<std::uint8_t> buf;
  std::size_t consumed = 0;

  // Hello first; only then is unlinking the names safe.
  {
    const FrameView view = next_frame(in, &buf, &consumed);
    HARNESS_CHECK(view.kind == FrameKind::kMachineDone);
    HARNESS_CHECK(decode_machine_done(view.payload, view.size).machine == 7);
  }
  to_worker.unlink();
  from_worker.unlink();

  // Store: table 1 gets {i -> i*i} for i in 0..9 as u64/u64 pairs, table 2
  // gets three bare keys (zero-length values).
  {
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> entries;
    for (std::uint64_t i = 0; i < 10; ++i) {
      const std::uint64_t v = i * i;
      append_u64(&entries, i);
      append_u64(&entries, v);
    }
    append_put_batch_prefix(&frame, 1, 0, 10, 8, 8);
    append_bytes(&frame, entries.data(), entries.size());
    std::vector<std::uint8_t> batch;
    append_frame(&batch, FrameKind::kPutBatch, frame.data(), frame.size());

    frame.clear();
    entries.clear();
    for (std::uint64_t i = 100; i < 103; ++i) append_u64(&entries, i);
    append_put_batch_prefix(&frame, 2, 0, 3, 8, 0);
    append_bytes(&frame, entries.data(), entries.size());
    append_frame(&batch, FrameKind::kPutBatch, frame.data(), frame.size());
    out.write(batch.data(), batch.size());
  }

  // Reads: hits on both tables, a key miss and a table miss.
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> req;
    append_read_request(&req, 1, 0, reinterpret_cast<const std::uint8_t*>(&i),
                        8);
    send_frame(out, FrameKind::kReadRequest, req);
    const FrameView view = next_frame(in, &buf, &consumed);
    HARNESS_CHECK(view.kind == FrameKind::kReadReply);
    const ReadReply rep = decode_read_reply(view.payload, view.size);
    HARNESS_CHECK(rep.found);
    HARNESS_CHECK(rep.value_size == 8);
    std::uint64_t v = 0;
    std::memcpy(&v, rep.value, 8);
    HARNESS_CHECK(v == i * i);
  }
  {
    const std::uint64_t key = 101;  // stored with a zero-length value
    std::vector<std::uint8_t> req;
    append_read_request(&req, 2, 0,
                        reinterpret_cast<const std::uint8_t*>(&key), 8);
    send_frame(out, FrameKind::kReadRequest, req);
    const FrameView view = next_frame(in, &buf, &consumed);
    const ReadReply rep = decode_read_reply(view.payload, view.size);
    HARNESS_CHECK(rep.found);
    HARNESS_CHECK(rep.value_size == 0);
  }
  for (const std::uint32_t table : {1u, 9u}) {  // key miss, then table miss
    const std::uint64_t key = 9999;
    std::vector<std::uint8_t> req;
    append_read_request(&req, table, 0,
                        reinterpret_cast<const std::uint8_t*>(&key), 8);
    send_frame(out, FrameKind::kReadRequest, req);
    const FrameView view = next_frame(in, &buf, &consumed);
    const ReadReply rep = decode_read_reply(view.payload, view.size);
    HARNESS_CHECK(!rep.found);
    HARNESS_CHECK(rep.value_size == 0);
  }

  // Barrier: echoed with the served-request count, then exit 0.
  {
    std::vector<std::uint8_t> req;
    append_round_barrier(&req, RoundBarrier{0, 0});
    send_frame(out, FrameKind::kRoundBarrier, req);
    const FrameView view = next_frame(in, &buf, &consumed);
    HARNESS_CHECK(view.kind == FrameKind::kRoundBarrier);
    const RoundBarrier b = decode_round_barrier(view.payload, view.size);
    HARNESS_CHECK(b.worker == 7);
    HARNESS_CHECK(b.machines_run == 13);  // 10 + 1 + 2 read requests
  }
  int status = 0;
  HARNESS_CHECK(waitpid(pid, &status, 0) == pid);
  HARNESS_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  std::printf("ampc_worker self-test passed\n");
  return 0;
}

}  // namespace
}  // namespace ampccut::transport

int main(int argc, char** argv) {
  using namespace ampccut::transport;
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    return self_test(argv[0]);
  }
  if (argc == 6 && std::strcmp(argv[1], "--serve") == 0) {
    serve(argv[2], argv[3],
          static_cast<std::size_t>(std::strtoull(argv[4], nullptr, 10)),
          std::strtoull(argv[5], nullptr, 10));
  }
  std::fprintf(stderr,
               "usage: ampc_worker --self-test\n"
               "       ampc_worker --serve <in-shm> <out-shm> <capacity> "
               "<worker-id>\n");
  return 2;
}
