// Workspace — a per-layer scratch arena for the training/eval hot path.
//
// Conv2d and Linear own one Workspace each and draw every recurring buffer
// from it: Conv2d's cached zero-padded input, its per-thread padded stripes,
// flipped weights and (stride > 1 only) grad_col scratch, the
// dLoss/dWeight staging tensor, and the packed-panel storage the blocked
// GEMM uses. All slots have grow-once semantics — a buffer expands to the
// largest extent ever requested and is then recycled verbatim — so a
// steady-state forward+backward step performs ZERO heap allocations. The
// growth_count() counter makes that property testable: the allocation
// regression tests assert it stays flat across steps.
//
// Slots are indexed by small integers local to the owning layer (each layer
// declares its own slot enum). Per-thread float scratch is laid out as
// pool_slot_count() stripes indexed by pool_slot() (util/thread_pool.h), so
// bodies running inside parallel regions get private stripes without
// locking.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace csq {

class Workspace {
 public:
  // Default bound on slot indices (layers use a handful of slots each).
  // Slot storage is reserved up front so a tensor()/floats() call never
  // relocates other slots — references handed out earlier in the same step
  // stay valid. Owners with many buffers (the integer runtime's compiled
  // graph draws one slot per activation edge) construct with an explicit
  // capacity.
  static constexpr int kMaxSlots = 8;

  explicit Workspace(int max_slots = kMaxSlots);
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  // Flat float scratch of at least `count` elements. Contents unspecified.
  float* floats(int slot, std::int64_t count);

  // Flat integer scratch (uint8 activation codes / int32 accumulators) for
  // the fixed-point inference path. Same grow-once semantics and growth
  // accounting as the float slots; each element type has its own slot space.
  std::uint8_t* bytes(int slot, std::int64_t count);
  std::int32_t* ints(int slot, std::int64_t count);

  // Tensor slot reshaped in place to `shape`; contents unspecified. The
  // returned reference stays valid until the next call for the same slot.
  Tensor& tensor(int slot, const std::vector<std::int64_t>& shape);
  Tensor& tensor(int slot, std::initializer_list<std::int64_t> shape);

  // The slot's current tensor, untouched (shape and contents as last
  // written). The slot must have been populated by a prior tensor() call.
  const Tensor& peek(int slot) const;

  // Packed-panel storage for the pooled GEMMs the owning layer issues at
  // top level (serial per-sample GEMMs inside parallel regions use the
  // executing thread's scratch instead).
  GemmScratch& gemm_scratch() { return gemm_scratch_; }

  // Number of buffer growth events since construction. A steady-state
  // training step must leave this unchanged.
  std::uint64_t growth_count() const { return growth_count_; }

  // Bytes currently retained by all slots (float, byte, int and tensor
  // storage; GEMM packing scratch excluded) — the arena's resident
  // footprint. The integer runtime reports this per compiled graph as
  // CompiledGraph::workspace_bytes().
  std::int64_t total_bytes() const;

 private:
  // Returns the slot tensor, accounting a growth event only when `count`
  // exceeds the slot's allocation high-water mark.
  Tensor& tensor_slot_for(int slot, std::int64_t count);

  // Shared grow-once slot logic for the flat scratch spans.
  template <typename T>
  T* flat_slot(std::vector<std::vector<T>>& slots, int slot,
               std::int64_t count);

  int max_slots_;
  std::vector<std::vector<float>> float_slots_;
  std::vector<std::vector<std::uint8_t>> byte_slots_;
  std::vector<std::vector<std::int32_t>> int_slots_;
  std::vector<Tensor> tensor_slots_;
  std::vector<std::int64_t> tensor_high_water_;
  GemmScratch gemm_scratch_;
  std::uint64_t growth_count_ = 0;
};

}  // namespace csq
