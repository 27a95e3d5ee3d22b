// Persisted CompiledGraph artifacts — the one on-disk format of the stack.
//
// save_graph serializes a calibrated graph into a version-3 "CSQM"
// container: a layer section (each quantized layer's name, shape, bit
// width, scale, grid denominator and i16 integer codes), followed by a
// "CSQG" graph section holding the recorded lowering program (topology,
// folded batch-norm affines, biases, act-quant pins) and the resolved
// per-edge activation scales/zero-points. Fields are little-endian.
//
// Each weight is stored once, as its layer record's integer codes. load_graph
// replays the program through runtime::build_graph, which packs every GEMM
// panel from those codes, and restores the edge scales: the float model
// never exists in the serving process, no calibration pass is needed, and
// the loaded graph's batched forward is bit-identical to the graph that was
// saved (replay, packing and requant-constant resolution are deterministic).
//
// Crash safety: save_graph serializes to memory, writes a sibling temp
// file, fsyncs it, atomically renames it over the destination and fsyncs
// the parent directory — a crash or stream failure mid-write leaves the
// previous complete artifact (or nothing), never a truncated file, and the
// published name survives a crash right after the rename. The artifact's
// last four bytes are a CRC-32 trailer over every preceding container byte;
// load_graph verifies it before trusting any field, so torn or bit-flipped
// artifacts are rejected with a clean check_error.
//
// Support window: the graph section is written at v6 and load_graph
// accepts exactly the bytes save_graph writes — graph-section v6 in a v3
// container, ending exactly at the CRC trailer after the edge records.
// Every other container or section version, older or newer, is rejected.
#pragma once

#include <string>

#include "runtime/compiled_graph.h"

namespace csq {
namespace runtime {

// Serializes `graph` to `path`. The graph must have resolved edge scales
// (calibrate() ran, or every edge is act-quant-pinned and the input edge
// calibrated) — throws check_error otherwise, and on a layer code outside
// the 8-bit grid; returns false on I/O failure.
bool save_graph(const std::string& path, CompiledGraph& graph);

// Deserializes a graph artifact. Throws check_error on format violations
// (missing file, CRC mismatch, bad magic, truncated or trailing bytes,
// absurd counts, a container other than v3 or a graph section other than
// v6).
// `pooled` selects thread-pool execution of the loaded graph's forwards.
CompiledGraph load_graph(const std::string& path, bool pooled = true);

}  // namespace runtime
}  // namespace csq
