#include "serve/transport.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/check.h"
#include "util/failpoint.h"

namespace csq {
namespace serve {

namespace {

// The first five wire codes are the ServeStatus values verbatim — the
// dispatcher maps try_infer's result with a cast, and this proves it stays
// valid if either enum is reordered.
static_assert(static_cast<int>(WireStatus::kOk) ==
                  static_cast<int>(ServeStatus::kOk) &&
              static_cast<int>(WireStatus::kTimeout) ==
                  static_cast<int>(ServeStatus::kTimeout) &&
              static_cast<int>(WireStatus::kOverloaded) ==
                  static_cast<int>(ServeStatus::kOverloaded) &&
              static_cast<int>(WireStatus::kShardFailed) ==
                  static_cast<int>(ServeStatus::kShardFailed) &&
              static_cast<int>(WireStatus::kShuttingDown) ==
                  static_cast<int>(ServeStatus::kShuttingDown),
              "wire status codes must mirror ServeStatus");

constexpr std::size_t kMaxModelIdBytes = 256;
// Pending-connection queue of the loopback listener.
constexpr int kListenBacklog = 16;
// Fixed part of a request body: u16 id_len + i64 deadline + u32 count.
constexpr std::size_t kRequestFixedBytes = 2 + 8 + 4;

template <typename T>
void append_pod(std::vector<std::uint8_t>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T read_pod_at(const std::uint8_t* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return value;
}

}  // namespace

const char* wire_status_name(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kTimeout:
      return "timeout";
    case WireStatus::kOverloaded:
      return "overloaded";
    case WireStatus::kShardFailed:
      return "shard_failed";
    case WireStatus::kShuttingDown:
      return "shutting_down";
    case WireStatus::kBadRequest:
      return "bad_request";
    case WireStatus::kTransportError:
      return "transport_error";
  }
  return "unknown";
}

namespace {

// One client connection. The event thread owns the read side (buffer
// assembly); while `busy` a dispatcher owns the write side, so the event
// thread neither extracts further frames nor closes the fd until the
// response is out (`dead` defers the close instead).
struct Connection {
  net::UniqueFd fd;
  std::vector<std::uint8_t> buffer;  // accumulated unparsed request bytes
  bool busy = false;
  bool dead = false;
};

struct Job {
  std::shared_ptr<Connection> conn;
  std::vector<std::uint8_t> body;  // one complete request frame body
};

}  // namespace

struct ServeTransport::Impl {
  BatchingServer& server;
  TransportOptions options;
  std::uint16_t bound_port = 0;

  net::UniqueFd listener;
  // The listener's fd NUMBER, cached before the event thread spawns and
  // never mutated: the event loop compares epoll events against it without
  // touching `listener` itself, which stop() concurrently reset()s (the
  // close is what stops new admissions; a stale-number accept4 just fails).
  int listener_fd = -1;
  net::UniqueFd epoll;
  net::UniqueFd wake_fd;

  // Guards conns, per-connection flags/buffers, jobs, stats, stopping.
  std::mutex mutex;
  std::condition_variable dispatch_cv;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::deque<Job> jobs;
  bool started = false;
  bool stopping = false;
  Stats stats;

  // Model routing cache: one registry lookup per model id, then the
  // dispatchers route via the resolved handle.
  std::unordered_map<std::string, ModelHandle> handles;
  std::unordered_map<std::string, runtime::CompiledGraph::IoShape> shapes;

  std::thread event_thread;
  std::vector<std::thread> dispatchers;

  explicit Impl(BatchingServer& server_in, TransportOptions options_in)
      : server(server_in), options(options_in) {}

  void wake() {
    const std::uint64_t one = 1;
    (void)!::write(wake_fd.get(), &one, sizeof(one));
  }

  void event_loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Connection>& conn);
  // Hands complete buffered frames to the dispatchers and performs
  // deferred closes. Caller holds `mutex`.
  void service_connection_locked(const std::shared_ptr<Connection>& conn);
  void dispatch_loop();
  void handle_job(Job& job, std::vector<float>& samples,
                  std::vector<float>& logits);
  bool resolve_model(const std::string& model_id, ModelHandle* handle,
                     runtime::CompiledGraph::IoShape* shape);
};

void ServeTransport::Impl::event_loop() {
  epoll_event events[64];
  while (true) {
    const int ready =
        ::epoll_wait(epoll.get(), events, 64, /*timeout_ms=*/-1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;  // epoll itself failed: tear down
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd.get()) {
        std::uint64_t drained = 0;
        (void)!::read(wake_fd.get(), &drained, sizeof(drained));
        continue;
      }
      if (fd == listener_fd) {
        accept_ready();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = conns.find(fd);
        if (it != conns.end()) conn = it->second;
      }
      if (conn != nullptr) read_ready(conn);
    }
    // Post-pass: deliver frames completed by reads above or unblocked by a
    // dispatcher finishing (its wake() lands here), and perform deferred
    // closes. Scanning all connections is fine at loopback fan-in scale.
    std::lock_guard<std::mutex> lock(mutex);
    if (stopping) return;
    for (auto it = conns.begin(); it != conns.end();) {
      service_connection_locked(it->second);
      if (it->second->dead && !it->second->busy) {
        it = conns.erase(it);  // UniqueFd closes; epoll auto-deregisters
      } else {
        ++it;
      }
    }
  }
}

void ServeTransport::Impl::accept_ready() {
  while (true) {
    const int fd = ::accept4(listener_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Listener closed by stop(), or a transient accept failure: either
      // way nothing to admit now.
      std::lock_guard<std::mutex> lock(mutex);
      ++stats.transport_errors;
      return;
    }
    if (CSQ_FAILPOINT_FIRES("transport.accept")) {
      ::close(fd);
      std::lock_guard<std::mutex> lock(mutex);
      ++stats.transport_errors;
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd.reset(fd);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
      std::lock_guard<std::mutex> lock(mutex);
      ++stats.transport_errors;
      continue;  // conn destructs, closing the fd
    }
    std::lock_guard<std::mutex> lock(mutex);
    ++stats.connections;
    conns.emplace(fd, std::move(conn));
  }
}

void ServeTransport::Impl::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t chunk[16 * 1024];
  while (true) {
    const ssize_t got = ::read(conn->fd.get(), chunk, sizeof(chunk));
    if (got > 0) {
      if (CSQ_FAILPOINT_FIRES("transport.read")) {
        std::lock_guard<std::mutex> lock(mutex);
        ++stats.transport_errors;
        conn->dead = true;
        return;
      }
      std::lock_guard<std::mutex> lock(mutex);
      conn->buffer.insert(conn->buffer.end(), chunk, chunk + got);
      if (static_cast<std::int64_t>(conn->buffer.size()) >
          options.max_frame_bytes + 4) {
        ++stats.transport_errors;  // runaway frame: protocol violation
        conn->dead = true;
        return;
      }
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    // EOF or hard error: drain what was buffered, then close.
    std::lock_guard<std::mutex> lock(mutex);
    if (got < 0) ++stats.transport_errors;
    conn->dead = true;
    return;
  }
}

void ServeTransport::Impl::service_connection_locked(
    const std::shared_ptr<Connection>& conn) {
  // One frame in flight per connection: responses go out in request order.
  if (conn->busy || conn->buffer.size() < 4) return;
  const auto body_len = read_pod_at<std::uint32_t>(conn->buffer.data());
  if (static_cast<std::int64_t>(body_len) > options.max_frame_bytes) {
    ++stats.transport_errors;
    conn->dead = true;
    return;
  }
  if (conn->buffer.size() < 4 + static_cast<std::size_t>(body_len)) return;
  Job job;
  job.conn = conn;
  job.body.assign(conn->buffer.begin() + 4,
                  conn->buffer.begin() + 4 + body_len);
  conn->buffer.erase(conn->buffer.begin(),
                     conn->buffer.begin() + 4 + body_len);
  conn->busy = true;
  ++stats.requests;
  jobs.push_back(std::move(job));
  dispatch_cv.notify_one();
}

bool ServeTransport::Impl::resolve_model(
    const std::string& model_id, ModelHandle* handle,
    runtime::CompiledGraph::IoShape* shape) {
  {
    std::lock_guard<std::mutex> lock(mutex);
    const auto it = handles.find(model_id);
    if (it != handles.end()) {
      *handle = it->second;
      *shape = shapes[model_id];
      return true;
    }
  }
  try {
    ModelHandle resolved = server.handle(model_id);
    const auto resolved_shape = server.model_shape(model_id);
    std::lock_guard<std::mutex> lock(mutex);
    handles.emplace(model_id, resolved);
    shapes.emplace(model_id, resolved_shape);
    *handle = resolved;
    *shape = resolved_shape;
    return true;
  } catch (const std::exception&) {
    return false;  // unknown model id -> kBadRequest
  }
}

void ServeTransport::Impl::handle_job(Job& job, std::vector<float>& samples,
                                      std::vector<float>& logits) {
  WireStatus status = WireStatus::kBadRequest;
  std::size_t logit_count = 0;

  // Parse the request body; any inconsistency is kBadRequest (the frame
  // boundary itself is intact, so the connection survives).
  const std::uint8_t* body = job.body.data();
  const std::size_t body_size = job.body.size();
  if (body_size >= kRequestFixedBytes) {
    const auto id_len = read_pod_at<std::uint16_t>(body);
    if (id_len <= kMaxModelIdBytes &&
        body_size >= kRequestFixedBytes + id_len) {
      const std::string model_id(reinterpret_cast<const char*>(body + 2),
                                 id_len);
      const auto deadline_us =
          read_pod_at<std::int64_t>(body + 2 + id_len);
      const auto sample_count =
          read_pod_at<std::uint32_t>(body + 2 + id_len + 8);
      const std::size_t expected = kRequestFixedBytes + id_len +
                                   static_cast<std::size_t>(sample_count) *
                                       sizeof(float);
      ModelHandle handle;
      runtime::CompiledGraph::IoShape shape;
      // deadline_us < -1 has no wire meaning (-1 is THE no-deadline
      // encoding); reject instead of aliasing it onto "no deadline".
      if (body_size == expected && deadline_us >= -1 &&
          resolve_model(model_id, &handle, &shape)) {
        const auto numel = static_cast<std::uint32_t>(
            shape.channels * shape.height * shape.width);
        if (sample_count == numel) {
          // Copy out of the frame: the float payload is not guaranteed
          // 4-byte aligned after a variable-length model id.
          samples.resize(sample_count);
          std::memcpy(samples.data(), body + kRequestFixedBytes + id_len,
                      static_cast<std::size_t>(sample_count) *
                          sizeof(float));
          logits.resize(static_cast<std::size_t>(shape.out_features));
          const ServeStatus serve_status = server.try_infer(
              handle, samples.data(), logits.data(), deadline_us);
          status = static_cast<WireStatus>(serve_status);
          if (serve_status == ServeStatus::kOk) {
            logit_count = logits.size();
          }
        }
      }
    }
  }

  std::vector<std::uint8_t> response;
  response.reserve(4 + 1 + 4 + logit_count * sizeof(float));
  append_pod(response,
             static_cast<std::uint32_t>(1 + 4 + logit_count * sizeof(float)));
  append_pod(response, static_cast<std::uint8_t>(status));
  append_pod(response, static_cast<std::uint32_t>(logit_count));
  for (std::size_t i = 0; i < logit_count; ++i) {
    append_pod(response, logits[i]);
  }

  const bool write_ok =
      !CSQ_FAILPOINT_FIRES("transport.write") &&
      net::write_full(job.conn->fd.get(), response.data(), response.size());
  {
    std::lock_guard<std::mutex> lock(mutex);
    job.conn->busy = false;
    if (write_ok) {
      ++stats.responses;
      if (status == WireStatus::kBadRequest) ++stats.bad_requests;
    } else {
      ++stats.transport_errors;
      job.conn->dead = true;
    }
  }
  // The event thread re-examines this connection: further buffered frames
  // become dispatchable (busy cleared), or a deferred close proceeds.
  wake();
}

void ServeTransport::Impl::dispatch_loop() {
  std::vector<float> samples;
  std::vector<float> logits;
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex);
      dispatch_cv.wait(lock, [&] { return stopping || !jobs.empty(); });
      if (jobs.empty()) return;  // stopping and fully drained
      job = std::move(jobs.front());
      jobs.pop_front();
    }
    handle_job(job, samples, logits);
  }
}

ServeTransport::ServeTransport(BatchingServer& server,
                               TransportOptions options)
    : impl_(std::make_unique<Impl>(server, options)) {
  CSQ_CHECK(options.dispatch_threads >= 1)
      << "serve transport: dispatch_threads must be at least 1";
  CSQ_CHECK(options.max_frame_bytes >= 64)
      << "serve transport: max_frame_bytes too small for any request";
}

ServeTransport::~ServeTransport() { stop(); }

void ServeTransport::start() {
  Impl& impl = *impl_;
  CSQ_CHECK(!impl.started) << "serve transport: start called twice";
  impl.listener = net::listen_loopback(impl.options.port, kListenBacklog,
                                       &impl.bound_port);
  CSQ_CHECK(net::set_nonblocking(impl.listener.get()))
      << "serve transport: cannot make listener non-blocking";
  impl.epoll.reset(::epoll_create1(EPOLL_CLOEXEC));
  CSQ_CHECK(impl.epoll.valid()) << "serve transport: epoll_create1 failed";
  impl.wake_fd.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
  CSQ_CHECK(impl.wake_fd.valid()) << "serve transport: eventfd failed";

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = impl.listener.get();
  CSQ_CHECK(::epoll_ctl(impl.epoll.get(), EPOLL_CTL_ADD,
                        impl.listener.get(), &event) == 0)
      << "serve transport: cannot register listener";
  event.data.fd = impl.wake_fd.get();
  CSQ_CHECK(::epoll_ctl(impl.epoll.get(), EPOLL_CTL_ADD, impl.wake_fd.get(),
                        &event) == 0)
      << "serve transport: cannot register wake eventfd";

  impl.listener_fd = impl.listener.get();
  impl.started = true;
  impl.stopping = false;
  impl.event_thread = std::thread([&impl] { impl.event_loop(); });
  impl.dispatchers.reserve(
      static_cast<std::size_t>(impl.options.dispatch_threads));
  for (int i = 0; i < impl.options.dispatch_threads; ++i) {
    impl.dispatchers.emplace_back([&impl] { impl.dispatch_loop(); });
  }
}

void ServeTransport::stop() {
  Impl& impl = *impl_;
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    if (!impl.started || impl.stopping) return;
    impl.stopping = true;
    // Close the listener FIRST: no connection is admitted past this point,
    // while everything already dispatched still completes and flushes its
    // response below.
    impl.listener.reset();
  }
  impl.wake();
  impl.event_thread.join();
  // Dispatchers drain the remaining job queue (their loop exits only when
  // it is empty), so every accepted frame gets a response.
  impl.dispatch_cv.notify_all();
  for (std::thread& dispatcher : impl.dispatchers) dispatcher.join();
  impl.dispatchers.clear();
  {
    std::lock_guard<std::mutex> lock(impl.mutex);
    impl.conns.clear();  // closes remaining client sockets
    impl.jobs.clear();
  }
  impl.epoll.reset();
  impl.wake_fd.reset();
}

std::uint16_t ServeTransport::port() const { return impl_->bound_port; }

ServeTransport::Stats ServeTransport::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

TransportClient::TransportClient(std::uint16_t port)
    : fd_(net::connect_loopback(port)) {}

bool TransportClient::connected() const { return fd_.valid(); }

WireStatus TransportClient::infer(const std::string& model_id,
                                  const float* sample,
                                  std::size_t sample_count,
                                  std::vector<float>& logits,
                                  std::int64_t deadline_us) {
  if (!fd_.valid()) return WireStatus::kTransportError;

  std::vector<std::uint8_t> frame;
  const std::size_t body_len = kRequestFixedBytes + model_id.size() +
                               sample_count * sizeof(float);
  frame.reserve(4 + body_len);
  append_pod(frame, static_cast<std::uint32_t>(body_len));
  append_pod(frame, static_cast<std::uint16_t>(model_id.size()));
  frame.insert(frame.end(), model_id.begin(), model_id.end());
  append_pod(frame, deadline_us);
  append_pod(frame, static_cast<std::uint32_t>(sample_count));
  const auto* sample_bytes = reinterpret_cast<const std::uint8_t*>(sample);
  frame.insert(frame.end(), sample_bytes,
               sample_bytes + sample_count * sizeof(float));
  if (!net::write_full(fd_.get(), frame.data(), frame.size())) {
    fd_.reset();
    return WireStatus::kTransportError;
  }

  std::uint32_t response_len = 0;
  if (!net::read_full(fd_.get(), &response_len, sizeof(response_len)) ||
      response_len < 1 + 4 || response_len > (1u << 24)) {
    fd_.reset();
    return WireStatus::kTransportError;
  }
  std::vector<std::uint8_t> body(response_len);
  if (!net::read_full(fd_.get(), body.data(), body.size())) {
    fd_.reset();
    return WireStatus::kTransportError;
  }
  const auto status = static_cast<WireStatus>(body[0]);
  const auto logit_count = read_pod_at<std::uint32_t>(body.data() + 1);
  if (body.size() != 1 + 4 + static_cast<std::size_t>(logit_count) *
                                 sizeof(float)) {
    fd_.reset();
    return WireStatus::kTransportError;
  }
  logits.resize(logit_count);
  if (logit_count > 0) {
    std::memcpy(logits.data(), body.data() + 5,
                static_cast<std::size_t>(logit_count) * sizeof(float));
  }
  return status;
}

}  // namespace serve
}  // namespace csq
