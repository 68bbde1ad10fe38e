#include "net/inmemory.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"

namespace vnfsgx::net {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// One direction of the pipe: a queue of timestamped chunks.
class Channel {
 public:
  explicit Channel(std::chrono::microseconds latency) : latency_(latency) {}

  void send(ByteView data) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw IoError("pipe: peer closed");
    chunks_.push_back(Chunk{Bytes(data.begin(), data.end()),
                            SteadyClock::now() + latency_});
    cv_.notify_all();
    if (on_readable_) on_readable_();
  }

  std::size_t receive(std::span<std::uint8_t> out) {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool bounded = read_timeout_.count() > 0;
    const auto deadline = SteadyClock::now() + read_timeout_;
    while (true) {
      if (!chunks_.empty()) {
        const auto deliver_at = chunks_.front().deliver_at;
        const auto now = SteadyClock::now();
        if (deliver_at <= now) break;
        cv_.wait_until(lock, deliver_at);
        continue;
      }
      if (closed_) return 0;
      if (!bounded) {
        cv_.wait(lock);
      } else if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
                 chunks_.empty() && !closed_) {
        throw TimeoutError("pipe receive deadline expired");
      }
    }
    std::size_t off = 0;
    while (off < out.size() && !chunks_.empty() &&
           chunks_.front().deliver_at <= SteadyClock::now()) {
      Chunk& chunk = chunks_.front();
      const std::size_t take =
          std::min(out.size() - off, chunk.data.size() - chunk.offset);
      std::copy_n(chunk.data.begin() + static_cast<std::ptrdiff_t>(chunk.offset),
                  take, out.begin() + static_cast<std::ptrdiff_t>(off));
      chunk.offset += take;
      off += take;
      if (chunk.offset == chunk.data.size()) chunks_.pop_front();
    }
    return off;
  }

  void close() {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    cv_.notify_all();
    if (on_readable_) on_readable_();  // readers observe EOF
  }

  void set_readable_callback(std::function<void()> callback) {
    const std::lock_guard<std::mutex> lock(mutex_);
    on_readable_ = std::move(callback);
  }

  bool readable() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return !chunks_.empty() || closed_;
  }

  void set_read_timeout(std::chrono::milliseconds timeout) {
    const std::lock_guard<std::mutex> lock(mutex_);
    read_timeout_ = timeout;
  }

 private:
  struct Chunk {
    Bytes data;
    SteadyClock::time_point deliver_at;
    std::size_t offset = 0;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Chunk> chunks_;
  bool closed_ = false;
  std::chrono::microseconds latency_;
  std::chrono::milliseconds read_timeout_{0};
  std::function<void()> on_readable_;
};

class PipeStream final : public Stream {
 public:
  PipeStream(std::shared_ptr<Channel> out, std::shared_ptr<Channel> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~PipeStream() override {
    // Tear down our own readiness hook first: once this end is gone nobody
    // will read from it, and owners (pooled runtimes) rely on destruction
    // clearing the hook even when the stream dies mid-burst inside a failed
    // session wrap — their borrowed stream pointer is dangling by then.
    in_->set_readable_callback(nullptr);
    PipeStream::close();
  }

  void write(ByteView data) override { out_->send(data); }

  std::size_t read(std::span<std::uint8_t> out) override {
    return in_->receive(out);
  }

  void close() override {
    out_->close();
    in_->close();
  }

  void set_read_timeout(std::chrono::milliseconds timeout) override {
    in_->set_read_timeout(timeout);
  }

  void set_readable_callback(std::function<void()> callback) {
    in_->set_readable_callback(std::move(callback));
  }

  bool readable() { return in_->readable(); }

  /// Detached shutdown hook: closing the read side from outside makes a
  /// blocked reader observe EOF. Holds only a weak reference, so it is
  /// safe to invoke after both stream ends are gone.
  std::function<void()> make_read_shutdown() {
    return [weak = std::weak_ptr<Channel>(in_)] {
      if (auto channel = weak.lock()) channel->close();
    };
  }

 private:
  std::shared_ptr<Channel> out_;
  std::shared_ptr<Channel> in_;
};

}  // namespace

std::pair<StreamPtr, StreamPtr> make_pipe(const LinkOptions& options) {
  auto a_to_b = std::make_shared<Channel>(options.latency);
  auto b_to_a = std::make_shared<Channel>(options.latency);
  return {std::make_unique<PipeStream>(a_to_b, b_to_a),
          std::make_unique<PipeStream>(b_to_a, a_to_b)};
}

bool set_pipe_readable_callback(Stream& stream,
                                std::function<void()> callback) {
  auto* pipe = dynamic_cast<PipeStream*>(&stream);
  if (!pipe) return false;
  pipe->set_readable_callback(std::move(callback));
  return true;
}

bool pipe_readable(Stream& stream) {
  auto* pipe = dynamic_cast<PipeStream*>(&stream);
  return pipe != nullptr && pipe->readable();
}

InMemoryNetwork::~InMemoryNetwork() { join_all(); }

void InMemoryNetwork::serve(const std::string& address, AcceptHandler handler,
                            const LinkOptions& options, ServeMode mode) {
  Listener listener;
  listener.handler = std::move(handler);
  listener.options = options;
  listener.mode = mode;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!listeners_.emplace(address, std::move(listener)).second) {
    throw Error("inmemory: address already in use: " + address);
  }
}

void InMemoryNetwork::serve_sharded(const std::string& address,
                                    std::vector<AcceptHandler> handlers,
                                    const LinkOptions& options) {
  if (handlers.empty()) {
    throw Error("inmemory: sharded listener needs at least one handler");
  }
  Listener listener;
  listener.options = options;
  listener.mode = ServeMode::kSharded;
  listener.shard_handlers =
      std::make_shared<std::vector<AcceptHandler>>(std::move(handlers));
  listener.shard_cursor = std::make_shared<std::atomic<std::size_t>>(0);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!listeners_.emplace(address, std::move(listener)).second) {
    throw Error("inmemory: address already in use: " + address);
  }
}

void InMemoryNetwork::stop_serving(const std::string& address) {
  const std::lock_guard<std::mutex> lock(mutex_);
  listeners_.erase(address);
}

StreamPtr InMemoryNetwork::connect(const std::string& address) {
  AcceptHandler handler;
  LinkOptions options;
  ServeMode mode;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = listeners_.find(address);
    if (it == listeners_.end()) {
      throw IoError("inmemory: connection refused: " + address);
    }
    options = it->second.options;
    mode = it->second.mode;
    if (mode == ServeMode::kSharded) {
      // In-memory SO_REUSEPORT: pick the next shard's accept handler. The
      // kernel balances by flow hash; round-robin gives the determinism
      // the per-shard balance tests want.
      auto& handlers = *it->second.shard_handlers;
      const std::size_t shard =
          it->second.shard_cursor->fetch_add(1, std::memory_order_relaxed) %
          handlers.size();
      handler = handlers[shard];
    } else {
      handler = it->second.handler;
    }
  }
  static obs::Counter& accepted = obs::registry().counter(
      "vnfsgx_net_connections_total", {{"transport", "inmemory"}},
      "Connections accepted, by transport");
  static obs::Gauge& active = obs::registry().gauge(
      "vnfsgx_net_active_connections", {{"transport", "inmemory"}},
      "Connections with a live server-side handler");
  auto [client_end, server_end] = make_pipe(options);
  accepted.add();
  if (mode == ServeMode::kInline || mode == ServeMode::kSharded) {
    // Pooled dispatch: the handler only registers the server end with a
    // runtime and returns, so no thread is spawned at all. The runtime's
    // connection-close path owns the active-gauge decrement instead.
    handler(std::move(server_end));
    return std::move(client_end);
  }
  active.add(1);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    reap_locked();
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::function<void()> shutdown;
    if (auto* pipe = dynamic_cast<PipeStream*>(server_end.get())) {
      shutdown = pipe->make_read_shutdown();
    }
    threads_.push_back(ConnThread{
        std::thread([handler = std::move(handler),
                     server = std::move(server_end), done]() mutable {
          handler(std::move(server));
          active.add(-1);
          done->store(true, std::memory_order_release);
        }),
        done, std::move(shutdown)});
  }
  return std::move(client_end);
}

void InMemoryNetwork::reap_locked() {
  // Join and drop threads whose handler already returned; callers hold
  // mutex_. join() on a finished thread returns immediately, so this keeps
  // threads_ proportional to *live* connections instead of every handle
  // ever spawned.
  std::erase_if(threads_, [](ConnThread& ct) {
    if (!ct.done->load(std::memory_order_acquire)) return false;
    if (ct.thread.joinable()) ct.thread.join();
    return true;
  });
}

std::size_t InMemoryNetwork::live_connection_threads() {
  const std::lock_guard<std::mutex> lock(mutex_);
  reap_locked();
  return threads_.size();
}

void InMemoryNetwork::join_all() {
  std::vector<ConnThread> threads;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads.swap(threads_);
  }
  // Keep-alive clients (e.g. the pooled HTTP client) may still hold idle
  // connections open. Signal EOF on each surviving server read side first —
  // the in-memory analogue of a server closing its keep-alive connections
  // on shutdown — so thread-mode handlers unblock instead of waiting for a
  // client close that never comes.
  for (auto& ct : threads) {
    if (ct.shutdown) ct.shutdown();
  }
  for (auto& ct : threads) {
    if (ct.thread.joinable()) ct.thread.join();
  }
}

}  // namespace vnfsgx::net
