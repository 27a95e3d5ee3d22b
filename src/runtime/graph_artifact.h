// Persisted CompiledGraph artifacts — the serving deployment container.
//
// save_graph serializes a calibrated graph into a version-3 "CSQM"
// container (core/model_io.h): the standard quantized-layer section (so
// load_quantized_model still reads the weights of a serving artifact),
// followed by a "CSQG" graph section holding the recorded lowering program
// (topology, folded batch-norm affines, biases, act-quant pins) and the
// resolved per-edge activation scales/zero-points.
//
// load_graph replays the program through runtime::build_graph and restores
// the edge scales: the float model never exists in the serving process, no
// calibration pass is needed, and the loaded graph's batched forward is
// bit-identical to the graph that was saved (replay and requant-constant
// resolution are deterministic).
//
// Crash safety: save_graph serializes to memory, writes a sibling temp
// file, fsyncs it, atomically renames it over the destination and fsyncs
// the parent directory — a crash or stream failure mid-write leaves the
// previous complete artifact (or nothing), never a truncated file, and the
// published name survives a crash right after the rename. The artifact's
// last four bytes are a CRC-32 trailer over every preceding container byte;
// both loaders verify it before trusting any field, so torn or bit-flipped
// artifacts are rejected with a clean check_error.
//
// Support window: the graph section is written at v5 and the loaders
// accept exactly the bytes save_graph writes — graph-section v5 in a v3
// container, ending exactly at the CRC trailer. Older sections are rejected.
//
// Page sharing: v5 carries a packed-weights section — each conv/linear
// layer's int8 planes and prepacked kernel panels, 64-byte aligned — so
// load_graph_mmap can map the artifact read-only and build graphs whose
// PackedIntWeights BORROW those pages instead of copying them. N serving
// processes (and all their replicas) then share one page cache for the
// immutable weight data; per-process unique RSS barely moves as replicas
// multiply.
#pragma once

#include <string>

#include "runtime/compiled_graph.h"

namespace csq {
namespace runtime {

// Serializes `graph` to `path`. The graph must have resolved edge scales
// (calibrate() ran, or every edge is act-quant-pinned and the input edge
// calibrated) — throws check_error otherwise; returns false on I/O failure.
bool save_graph(const std::string& path, CompiledGraph& graph);

// Deserializes a graph artifact. Throws check_error on format violations
// (CRC mismatch, bad magic, truncated or trailing bytes, absurd counts,
// versions other than v5).
// `pooled` selects thread-pool execution of the loaded graph's forwards.
CompiledGraph load_graph(const std::string& path, bool pooled = true);

// Memory-mapped load: maps `path` read-only, runs the same parse as
// load_graph (CRC-32 trailer verified BEFORE trusting any field), then
// builds a graph whose PackedIntWeights borrow planes/panels straight from
// the mapping — the weight codes are never copied into the process. The
// mapping lives as long as any graph sharing the loaded program
// (replicate / rebuild_replica keep it alive), and the loaded graph's
// forwards are bit-identical to a load_graph copy of the same file.
// Throws check_error as load_graph does. Mapped programs cannot be re-saved
// (save_graph rejects them — the owned codes are absent).
CompiledGraph load_graph_mmap(const std::string& path, bool pooled = true);

}  // namespace runtime
}  // namespace csq
