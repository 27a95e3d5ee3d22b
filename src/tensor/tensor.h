// Dense float32 tensor with contiguous row-major storage.
//
// The library deliberately keeps a single dtype (float) and a single layout
// (contiguous, row-major): every operation the CSQ pipeline needs — GEMM,
// im2col convolution, batch-norm, elementwise gate evaluation — is expressible
// over flat spans, and keeping layout trivial keeps kernels fast and testable.
// Copies are deep; Tensor is a regular value type (Core Guidelines C.20).
//
// Storage recycling: tensor storage (the data span AND the shape vector) is
// drawn from a two-tier recycling pool and returned to it on destruction.
// Each thread fronts the shared pool with a lock-free thread-local cache:
// training loops create and destroy the same tensor shapes every step
// (layer outputs, gradients, scratch), so after a warmup step each thread
// serves its own requests from its own shelves without touching the heap OR
// the pool mutex — steady-state forward+backward performs zero allocations,
// deterministically even when N data-parallel workers cycle identical
// working sets concurrently (a single shared shelf would make that a race).
// Local misses and overflow fall back to the byte-capped shared tier, and a
// thread's cache flushes into it at thread exit. Observable through
// tensor_pool_stats() (the allocation regression tests assert on it).
//
// Borrowed tensors: Tensor::borrow() wraps an externally owned float span
// (a ParameterArena segment, a contiguous micro-batch slice) as a
// non-owning view. A borrowed tensor reads and writes the caller's memory
// directly; copying FROM it deep-copies into owned storage, while
// assigning INTO it copies elements in place (element count must match) so
// the view never migrates out of its arena. Reshaping storage
// (resize_unspecified) is forbidden on views.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace csq {

class Tensor {
 public:
  Tensor() = default;
  // Zero-filled tensor of the given shape. The const& overload recycles
  // pooled storage for both the shape and the data; the && overload adopts
  // the caller's shape vector.
  explicit Tensor(const std::vector<std::int64_t>& shape);
  explicit Tensor(std::vector<std::int64_t>&& shape);
  Tensor(std::initializer_list<std::int64_t> shape);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  // Factories ----------------------------------------------------------
  static Tensor zeros(std::vector<std::int64_t> shape);
  static Tensor full(std::vector<std::int64_t> shape, float value);
  static Tensor from_data(std::vector<std::int64_t> shape,
                          std::vector<float> values);
  // Pool-backed tensor with UNSPECIFIED contents — for outputs that are
  // fully overwritten (GEMM with beta == 0, im2col); skips the zero-fill.
  static Tensor uninitialized(const std::vector<std::int64_t>& shape);
  static Tensor uninitialized(std::initializer_list<std::int64_t> shape);
  // Non-owning view over caller-owned contiguous storage (see the borrowed-
  // tensor notes above). `data` must cover shape_numel(shape) floats and
  // outlive the view.
  static Tensor borrow(float* data, const std::vector<std::int64_t>& shape);

  // Shape --------------------------------------------------------------
  const std::vector<std::int64_t>& shape() const { return shape_; }
  std::int64_t dim(int axis) const;
  int ndim() const { return static_cast<int>(shape_.size()); }
  std::int64_t numel() const {
    return borrowed_ != nullptr ? borrowed_count_
                                : static_cast<std::int64_t>(data_.size());
  }
  bool empty() const { return numel() == 0; }
  bool is_borrowed() const { return borrowed_ != nullptr; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }
  std::string shape_string() const;

  // Returns a tensor with identical data and a new shape with the same
  // element count. O(numel) copy on lvalues, O(1) move on rvalues.
  Tensor reshaped(std::vector<std::int64_t> new_shape) const&;
  Tensor reshaped(std::vector<std::int64_t> new_shape) &&;

  // In-place reshape that reuses the existing storage when capacity allows
  // (grow-once semantics; zero steady-state allocations). Contents are
  // UNSPECIFIED afterwards — intended for Workspace-held scratch tensors.
  void resize_unspecified(const std::vector<std::int64_t>& new_shape);
  void resize_unspecified(std::initializer_list<std::int64_t> new_shape);

  // Frees owned storage straight to the heap, bypassing the recycling pool
  // (which would keep a displaced one-off span resident), and leaves an
  // empty tensor. Forbidden on views.
  void free_storage();

  // Data access ---------------------------------------------------------
  float* data() { return borrowed_ != nullptr ? borrowed_ : data_.data(); }
  const float* data() const {
    return borrowed_ != nullptr ? borrowed_ : data_.data();
  }
  float& operator[](std::int64_t flat_index) { return data()[check_flat(flat_index)]; }
  float operator[](std::int64_t flat_index) const { return data()[check_flat(flat_index)]; }

  // Multi-dimensional accessors (bounds-checked; intended for tests and
  // non-hot-path code — kernels index flat spans directly).
  float& at(std::initializer_list<std::int64_t> index);
  float at(std::initializer_list<std::int64_t> index) const;

  // Whole-tensor helpers --------------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }

 private:
  std::size_t check_flat(std::int64_t flat_index) const;
  std::size_t flat_offset(std::initializer_list<std::int64_t> index) const;
  // Fits data_ to shape_ with unspecified contents, recycling via the pool.
  void resize_storage();

  std::vector<std::int64_t> shape_;
  std::vector<float> data_;
  // Borrow mode: when set, `borrowed_` is the data span and data_ stays
  // empty. The view neither frees nor pools the span.
  float* borrowed_ = nullptr;
  std::int64_t borrowed_count_ = 0;
};

// Computes the element count of a shape; throws on negative extents.
std::int64_t shape_numel(const std::vector<std::int64_t>& shape);

// ------------------------------------------------------- storage pool ----

struct TensorPoolStats {
  // Data-span requests served by recycling vs. fresh heap allocations.
  std::uint64_t data_requests = 0;
  std::uint64_t data_reuses = 0;
  std::uint64_t data_allocations = 0;
  // Bytes currently cached in the pool (bounded by an internal cap).
  std::uint64_t cached_bytes = 0;
};

TensorPoolStats tensor_pool_stats();

}  // namespace csq
