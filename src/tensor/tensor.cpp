#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace csq {

namespace {

constexpr int kBuckets = 40;

int floor_log2(std::size_t n) {
  int bits = 0;
  while (n > 1) {
    n >>= 1;
    ++bits;
  }
  return bits;
}

int ceil_log2(std::size_t n) {
  const int floor = floor_log2(n);
  return (std::size_t{1} << floor) == n ? floor : floor + 1;
}

// Pool telemetry. Relaxed atomics: the counters are monotone statistics read
// only by tensor_pool_stats(), never used for synchronization.
std::atomic<std::uint64_t> g_data_requests{0};
std::atomic<std::uint64_t> g_data_reuses{0};
std::atomic<std::uint64_t> g_data_allocations{0};
// Bytes parked across all per-thread caches (the global tier tracks its own
// bytes under the pool mutex).
std::atomic<std::uint64_t> g_thread_cached_bytes{0};

// Per-thread front cache over the shared pool. A thread's steady-state
// acquire/release cycle is served entirely from its own shelves, so the
// zero-allocation guarantee is deterministic under concurrent trainers: with
// a single shared shelf, N data-parallel workers releasing and re-acquiring
// identical working sets race for the recycled spans, and a worker whose
// acquire lands before a sibling's release sees an empty shelf and hits the
// heap — an interleaving-dependent high-water mark. Thread-local shelves
// also keep the mutex off the steady-state hot path entirely; the shared
// tier below is only touched on a local miss (first sighting of a size on
// this thread) and on overflow past the local caps.
class ThreadCache {
 public:
  static constexpr std::size_t kMaxCachedPerBucket = 64;
  static constexpr std::uint64_t kMaxCachedBytes = 32ull << 20;
  static constexpr std::size_t kMaxCachedShapes = 1024;

  ThreadCache();
  ~ThreadCache();

  bool try_acquire_data(std::vector<float>& out, int bucket) {
    std::vector<std::vector<float>>& shelf =
        shelves_[static_cast<std::size_t>(bucket)];
    if (shelf.empty()) return false;
    const std::uint64_t bytes = shelf.back().capacity() * sizeof(float);
    cached_bytes_ -= bytes;
    g_thread_cached_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    out = std::move(shelf.back());
    shelf.pop_back();
    return true;
  }

  // Takes ownership and returns true when the span fits under the local
  // caps; leaves `v` untouched (for the global tier) otherwise.
  bool try_release_data(std::vector<float>& v) noexcept {
    const std::uint64_t bytes = v.capacity() * sizeof(float);
    std::vector<std::vector<float>>& shelf =
        shelves_[static_cast<std::size_t>(floor_log2(v.capacity()))];
    if (shelf.size() >= kMaxCachedPerBucket ||
        cached_bytes_ + bytes > kMaxCachedBytes) {
      return false;
    }
    shelf.push_back(std::move(v));
    cached_bytes_ += bytes;
    g_thread_cached_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return true;
  }

  bool try_acquire_shape(std::vector<std::int64_t>& out) {
    if (shapes_.empty()) return false;
    out = std::move(shapes_.back());
    shapes_.pop_back();
    out.clear();
    return true;
  }

  bool try_release_shape(std::vector<std::int64_t>& v) noexcept {
    if (shapes_.size() >= kMaxCachedShapes) return false;
    shapes_.push_back(std::move(v));
    return true;
  }

  // Hands every cached buffer to the global tier (thread exit) so
  // short-lived worker threads donate their warm spans instead of freeing.
  void flush() noexcept;

 private:
  std::vector<std::vector<float>> shelves_[kBuckets];
  std::vector<std::vector<std::int64_t>> shapes_;
  std::uint64_t cached_bytes_ = 0;
};

thread_local ThreadCache* t_thread_cache = nullptr;
// Set once this thread's cache has been destroyed: late releases during
// thread teardown (thread_local tensors destroyed after the cache) must
// bypass straight to the global tier instead of resurrecting the cache.
thread_local bool t_thread_cache_retired = false;

ThreadCache* thread_cache() {
  if (t_thread_cache != nullptr) return t_thread_cache;
  if (t_thread_cache_retired) return nullptr;
  thread_local ThreadCache cache;  // ctor publishes itself to t_thread_cache
  return t_thread_cache;
}

// Shared recycling tier. Data spans are bucketed by floor(log2(capacity)):
// a request for n elements is served from bucket ceil(log2(n)), whose
// members all have capacity >= 2^ceil(log2(n)) >= n. Freshly allocated
// spans reserve the rounded-up power of two, so recycled capacities stay
// normalized and the waste factor is bounded by 2x. The cache is
// byte-capped; releases beyond the cap simply free.
class StoragePool {
 public:
  static constexpr std::uint64_t kMaxCachedBytes = 256ull << 20;
  static constexpr std::size_t kMaxCachedShapes = 4096;
  static constexpr std::size_t kMaxCachedPerBucket = 256;

  StoragePool() {
    // The shelf containers are reserved once and never exceed their
    // reserved extents (releases beyond a cap drop the buffer instead of
    // pushing), so the pool's own bookkeeping performs no allocations
    // after construction — a shelf push_back that reallocated mid-serving
    // would break the zero-allocation steady-state guarantee exactly when
    // the cached high-water mark advances.
    shapes_.reserve(kMaxCachedShapes);
    for (auto& shelf : data_shelves_) shelf.reserve(kMaxCachedPerBucket);
  }

  void acquire_data(std::vector<float>& out, std::size_t count) {
    if (count == 0) {
      out.clear();
      return;
    }
    g_data_requests.fetch_add(1, std::memory_order_relaxed);
    const int bucket = ceil_log2(count);
    ThreadCache* cache = thread_cache();
    if (cache != nullptr && cache->try_acquire_data(out, bucket)) {
      g_data_reuses.fetch_add(1, std::memory_order_relaxed);
      out.resize(count);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::vector<std::vector<float>>& shelf =
          data_shelves_[static_cast<std::size_t>(bucket)];
      if (!shelf.empty()) {
        g_data_reuses.fetch_add(1, std::memory_order_relaxed);
        cached_bytes_ -= shelf.back().capacity() * sizeof(float);
        out = std::move(shelf.back());
        shelf.pop_back();
        out.resize(count);
        return;
      }
    }
    g_data_allocations.fetch_add(1, std::memory_order_relaxed);
    out.reserve(std::size_t{1} << bucket);
    out.resize(count);
  }

  void release_data(std::vector<float>&& v) noexcept {
    if (v.capacity() == 0) return;
    ThreadCache* cache = thread_cache();
    if (cache != nullptr && cache->try_release_data(v)) return;
    global_release_data(std::move(v));
  }

  void global_release_data(std::vector<float>&& v) noexcept {
    const std::uint64_t bytes = v.capacity() * sizeof(float);
    const int bucket = floor_log2(v.capacity());
    std::lock_guard<std::mutex> lock(mutex_);
    if (cached_bytes_ + bytes > kMaxCachedBytes) return;  // drop: just free
    std::vector<std::vector<float>>& shelf =
        data_shelves_[static_cast<std::size_t>(bucket)];
    if (shelf.size() >= kMaxCachedPerBucket) return;  // drop: stay reserved
    shelf.push_back(std::move(v));
    cached_bytes_ += bytes;
  }

  void acquire_shape(std::vector<std::int64_t>& out) {
    ThreadCache* cache = thread_cache();
    if (cache != nullptr && cache->try_acquire_shape(out)) return;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!shapes_.empty()) {
        out = std::move(shapes_.back());
        shapes_.pop_back();
        out.clear();
        return;
      }
    }
    out.reserve(8);
  }

  void release_shape(std::vector<std::int64_t>&& v) noexcept {
    if (v.capacity() == 0) return;
    ThreadCache* cache = thread_cache();
    if (cache != nullptr && cache->try_release_shape(v)) return;
    global_release_shape(std::move(v));
  }

  void global_release_shape(std::vector<std::int64_t>&& v) noexcept {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shapes_.size() >= kMaxCachedShapes) return;
    shapes_.push_back(std::move(v));
  }

  TensorPoolStats stats() {
    TensorPoolStats snapshot;
    snapshot.data_requests = g_data_requests.load(std::memory_order_relaxed);
    snapshot.data_reuses = g_data_reuses.load(std::memory_order_relaxed);
    snapshot.data_allocations =
        g_data_allocations.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.cached_bytes =
        cached_bytes_ + g_thread_cached_bytes.load(std::memory_order_relaxed);
    return snapshot;
  }

 private:
  std::mutex mutex_;
  std::vector<std::vector<float>> data_shelves_[kBuckets];
  std::vector<std::vector<std::int64_t>> shapes_;
  std::uint64_t cached_bytes_ = 0;
};

// Leaked so tensors with static storage duration can release safely during
// program teardown regardless of destruction order.
StoragePool& pool() {
  static StoragePool* instance = new StoragePool();
  return *instance;
}

ThreadCache::ThreadCache() {
  // Reserve once so cache pushes never allocate (release_data is noexcept
  // and runs inside the zero-allocation steady-state window).
  shapes_.reserve(kMaxCachedShapes);
  for (auto& shelf : shelves_) shelf.reserve(kMaxCachedPerBucket);
  t_thread_cache = this;
}

ThreadCache::~ThreadCache() {
  t_thread_cache = nullptr;
  t_thread_cache_retired = true;
  flush();
}

void ThreadCache::flush() noexcept {
  for (auto& shelf : shelves_) {
    while (!shelf.empty()) {
      std::vector<float> v = std::move(shelf.back());
      shelf.pop_back();
      g_thread_cached_bytes.fetch_sub(v.capacity() * sizeof(float),
                                      std::memory_order_relaxed);
      pool().global_release_data(std::move(v));
    }
  }
  while (!shapes_.empty()) {
    std::vector<std::int64_t> v = std::move(shapes_.back());
    shapes_.pop_back();
    pool().global_release_shape(std::move(v));
  }
  cached_bytes_ = 0;
}

}  // namespace

TensorPoolStats tensor_pool_stats() { return pool().stats(); }

std::int64_t shape_numel(const std::vector<std::int64_t>& shape) {
  std::int64_t count = 1;
  for (const std::int64_t extent : shape) {
    CSQ_CHECK(extent >= 0) << "negative shape extent " << extent;
    count *= extent;
  }
  return count;
}

Tensor::Tensor(const std::vector<std::int64_t>& shape) {
  pool().acquire_shape(shape_);
  shape_.assign(shape.begin(), shape.end());
  pool().acquire_data(data_, static_cast<std::size_t>(shape_numel(shape_)));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(std::vector<std::int64_t>&& shape) : shape_(std::move(shape)) {
  pool().acquire_data(data_, static_cast<std::size_t>(shape_numel(shape_)));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(std::initializer_list<std::int64_t> shape) {
  pool().acquire_shape(shape_);
  shape_.assign(shape.begin(), shape.end());
  pool().acquire_data(data_, static_cast<std::size_t>(shape_numel(shape_)));
  std::fill(data_.begin(), data_.end(), 0.0f);
}

Tensor::Tensor(const Tensor& other) {
  // Copying FROM a borrowed view yields an independent OWNED tensor: the
  // copy must stay valid after the view's arena is gone.
  pool().acquire_shape(shape_);
  shape_.assign(other.shape_.begin(), other.shape_.end());
  pool().acquire_data(data_, static_cast<std::size_t>(other.numel()));
  std::copy(other.data(), other.data() + other.numel(), data_.begin());
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  if (borrowed_ != nullptr) {
    // Assignment INTO a view copies elements in place — the view must keep
    // aliasing its arena segment (callers that snapshot/restore a
    // Parameter's value would otherwise silently unhook it).
    CSQ_CHECK(other.numel() == borrowed_count_)
        << "assign into borrowed tensor: element count " << other.numel()
        << " != " << borrowed_count_;
    shape_ = other.shape_;
    std::copy(other.data(), other.data() + other.numel(), borrowed_);
    return *this;
  }
  // Plain vector copy-assignment reuses existing capacity, so repeated
  // same-shape assignments (per-step activation caches) never allocate.
  shape_ = other.shape_;
  data_.assign(other.data(), other.data() + other.numel());
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      borrowed_(other.borrowed_),
      borrowed_count_(other.borrowed_count_) {
  other.borrowed_ = nullptr;
  other.borrowed_count_ = 0;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this != &other) {
    if (borrowed_ != nullptr) {
      // A borrowed target keeps its arena segment: fall back to an element
      // copy (same semantics as copy-assign into a view). numel mismatch
      // would be a caller bug; terminate via the noexcept boundary.
      CSQ_CHECK(other.numel() == borrowed_count_)
          << "move-assign into borrowed tensor: element count mismatch";
      shape_ = other.shape_;
      std::copy(other.data(), other.data() + other.numel(), borrowed_);
      return *this;
    }
    pool().release_shape(std::move(shape_));
    pool().release_data(std::move(data_));
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    borrowed_ = other.borrowed_;
    borrowed_count_ = other.borrowed_count_;
    other.borrowed_ = nullptr;
    other.borrowed_count_ = 0;
  }
  return *this;
}

Tensor::~Tensor() {
  pool().release_shape(std::move(shape_));
  pool().release_data(std::move(data_));
}

Tensor Tensor::zeros(std::vector<std::int64_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::full(std::vector<std::int64_t> shape, float value) {
  Tensor result(std::move(shape));
  result.fill(value);
  return result;
}

Tensor Tensor::from_data(std::vector<std::int64_t> shape,
                         std::vector<float> values) {
  CSQ_CHECK(shape_numel(shape) == static_cast<std::int64_t>(values.size()))
      << "data size " << values.size() << " does not match shape";
  Tensor result;
  result.shape_ = std::move(shape);
  result.data_ = std::move(values);
  return result;
}

Tensor Tensor::uninitialized(const std::vector<std::int64_t>& shape) {
  Tensor result;
  pool().acquire_shape(result.shape_);
  result.shape_.assign(shape.begin(), shape.end());
  pool().acquire_data(result.data_,
                      static_cast<std::size_t>(shape_numel(result.shape_)));
  return result;
}

Tensor Tensor::uninitialized(std::initializer_list<std::int64_t> shape) {
  Tensor result;
  pool().acquire_shape(result.shape_);
  result.shape_.assign(shape.begin(), shape.end());
  pool().acquire_data(result.data_,
                      static_cast<std::size_t>(shape_numel(result.shape_)));
  return result;
}

Tensor Tensor::borrow(float* data, const std::vector<std::int64_t>& shape) {
  const std::int64_t count = shape_numel(shape);
  CSQ_CHECK(data != nullptr || count == 0) << "borrow: null span";
  Tensor result;
  pool().acquire_shape(result.shape_);
  result.shape_.assign(shape.begin(), shape.end());
  result.borrowed_ = data;
  result.borrowed_count_ = count;
  return result;
}

void Tensor::free_storage() {
  CSQ_CHECK(borrowed_ == nullptr) << "free_storage on a borrowed tensor";
  shape_.clear();
  std::vector<float>().swap(data_);
}

std::int64_t Tensor::dim(int axis) const {
  CSQ_CHECK(axis >= 0 && axis < ndim())
      << "axis " << axis << " out of range for " << ndim() << "-d tensor";
  return shape_[static_cast<std::size_t>(axis)];
}

std::string Tensor::shape_string() const {
  std::ostringstream out;
  out << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << ']';
  return out.str();
}

Tensor Tensor::reshaped(std::vector<std::int64_t> new_shape) const& {
  CSQ_CHECK(shape_numel(new_shape) == numel())
      << "reshape " << shape_string() << " -> incompatible element count";
  Tensor result(*this);
  result.shape_.assign(new_shape.begin(), new_shape.end());
  return result;
}

Tensor Tensor::reshaped(std::vector<std::int64_t> new_shape) && {
  CSQ_CHECK(shape_numel(new_shape) == numel())
      << "reshape " << shape_string() << " -> incompatible element count";
  shape_ = std::move(new_shape);
  return std::move(*this);
}

void Tensor::resize_unspecified(const std::vector<std::int64_t>& new_shape) {
  shape_.assign(new_shape.begin(), new_shape.end());
  resize_storage();
}

void Tensor::resize_unspecified(
    std::initializer_list<std::int64_t> new_shape) {
  shape_.assign(new_shape.begin(), new_shape.end());
  resize_storage();
}

void Tensor::resize_storage() {
  CSQ_CHECK(borrowed_ == nullptr)
      << "resize on a borrowed tensor (views cannot reshape their storage)";
  const auto count = static_cast<std::size_t>(shape_numel(shape_));
  if (data_.capacity() < count) {
    pool().release_data(std::move(data_));
    pool().acquire_data(data_, count);
  } else {
    data_.resize(count);
  }
}

float& Tensor::at(std::initializer_list<std::int64_t> index) {
  return data()[flat_offset(index)];
}

float Tensor::at(std::initializer_list<std::int64_t> index) const {
  return data()[flat_offset(index)];
}

void Tensor::fill(float value) {
  std::fill(data(), data() + numel(), value);
}

std::size_t Tensor::check_flat(std::int64_t flat_index) const {
  CSQ_CHECK(flat_index >= 0 && flat_index < numel())
      << "flat index " << flat_index << " out of range " << numel();
  return static_cast<std::size_t>(flat_index);
}

std::size_t Tensor::flat_offset(
    std::initializer_list<std::int64_t> index) const {
  CSQ_CHECK(static_cast<int>(index.size()) == ndim())
      << "index rank " << index.size() << " != tensor rank " << ndim();
  std::size_t offset = 0;
  int axis = 0;
  for (const std::int64_t i : index) {
    const std::int64_t extent = shape_[static_cast<std::size_t>(axis)];
    CSQ_CHECK(i >= 0 && i < extent)
        << "index " << i << " out of range " << extent << " on axis " << axis;
    offset = offset * static_cast<std::size_t>(extent) +
             static_cast<std::size_t>(i);
    ++axis;
  }
  return offset;
}

}  // namespace csq
