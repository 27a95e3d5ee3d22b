// serve::ServeTransport — cross-process serving over loopback TCP: the
// network front of the in-process BatchingServer.
//
// A client process connects to 127.0.0.1:<port> and speaks a tiny
// length-prefixed binary protocol (little-endian, fixed-width fields;
// loopback-only, so no byte-order negotiation):
//
//   request frame:
//     u32  body_len                    (bytes after this field)
//     u16  model_id_len                (<= 256)
//     u8   model_id[model_id_len]
//     i64  deadline_us                 -1 = no deadline; 0 = already
//                                      expired (admit, then kTimeout unless
//                                      completable without waiting); > 0 =
//                                      bound on queueing + service; < -1 =
//                                      kBadRequest. Matches the PINNED
//                                      BatchingServer::try_infer semantics.
//     u32  sample_count                must equal the model's C*H*W
//     f32  samples[sample_count]
//
//   response frame:
//     u32  body_len
//     u8   status                      WireStatus below
//     u32  logit_count                 model out_features on kOk, else 0
//     f32  logits[logit_count]
//
// Server architecture: ONE epoll event thread owns the listener and every
// connection's read side — it accepts, assembles frames from partial reads,
// and enqueues complete frames for N dispatcher threads that call
// BatchingServer::try_infer (the existing zero-alloc request ring; typed
// ServeStatus failures map 1:1 onto wire status codes) and write the
// response. Per-connection frames are served strictly in order (one in
// flight at a time), so responses never interleave.
//
// Graceful drain: stop() CLOSES THE LISTENER FIRST — new connections are
// refused while every already-dispatched request completes and its response
// is written — then tears down the event/dispatcher threads and the
// remaining connections. Call transport.stop() before server.stop() for a
// clean cross-process drain (late requests then see kShuttingDown rather
// than a dead socket).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/batching_server.h"
#include "util/net.h"

namespace csq {
namespace serve {

// On-the-wire status byte. The first five values are numerically identical
// to ServeStatus (static_assert'd in transport.cpp); the rest are
// transport-layer outcomes the in-process API cannot produce.
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kTimeout = 1,
  kOverloaded = 2,
  kShardFailed = 3,
  kShuttingDown = 4,
  kBadRequest = 5,      // malformed frame, unknown model, wrong sample count
  kTransportError = 6,  // client-side only: dead socket / short frame
};

const char* wire_status_name(WireStatus status);

struct TransportOptions {
  // 0 = kernel-assigned ephemeral port; read the bound port via port().
  std::uint16_t port = 0;
  // Dispatcher threads calling try_infer. Each handles one request at a
  // time, so this bounds transport-initiated concurrency into the ring.
  int dispatch_threads = 2;
  // Frames larger than this are a protocol violation: the connection is
  // dropped (bounds a malicious or corrupt client's memory use).
  std::int64_t max_frame_bytes = 1 << 20;
};

class ServeTransport {
 public:
  // The server must outlive the transport and should be start()ed before
  // requests arrive (requests to a stopped server complete with
  // kShuttingDown, which is also the orderly-shutdown signal clients see).
  explicit ServeTransport(BatchingServer& server,
                          TransportOptions options = {});
  ~ServeTransport();  // stops and joins

  ServeTransport(const ServeTransport&) = delete;
  ServeTransport& operator=(const ServeTransport&) = delete;

  // Binds the loopback listener and spawns the event + dispatcher threads.
  void start();
  // Graceful drain: closes the listener (refusing new connections), lets
  // every dispatched request finish and flush its response, then joins all
  // threads and closes remaining connections. Idempotent.
  void stop();

  // The bound loopback port (valid after start()).
  std::uint16_t port() const;

  struct Stats {
    std::uint64_t connections = 0;       // accepted
    std::uint64_t requests = 0;          // complete frames dispatched
    std::uint64_t responses = 0;         // response frames written
    std::uint64_t bad_requests = 0;      // kBadRequest responses
    std::uint64_t transport_errors = 0;  // accept/read/write failures,
                                         // oversized frames, dead peers
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Blocking client for the wire protocol above — one connection, one
// request in flight. Separate client PROCESSES each hold their own
// (examples/serve_quantized --client is the multi-process driver).
class TransportClient {
 public:
  // Connects to 127.0.0.1:port. connected() reports failure (no throw —
  // clients race server startup in process fleets).
  explicit TransportClient(std::uint16_t port);

  bool connected() const;

  // One round trip. On kOk, `logits` is resized to the returned logit
  // count. Any socket failure (including a server that vanished mid-call)
  // returns kTransportError and closes the connection.
  WireStatus infer(const std::string& model_id, const float* sample,
                   std::size_t sample_count, std::vector<float>& logits,
                   std::int64_t deadline_us = -1);

 private:
  net::UniqueFd fd_;
};

}  // namespace serve
}  // namespace csq
