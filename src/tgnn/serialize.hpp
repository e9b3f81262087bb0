// Model checkpointing: save / load every parameter of a TgnModel (+ its
// decoder, + the LUT encoder's bin edges) to a single binary file, so a
// trained co-designed model can be exported once and deployed on the
// accelerator without retraining.
//
// Format (little-endian):
//   magic "TGNN" | u32 version | u64 param-count
//   per parameter: u32 name-len | name bytes | u64 rows | u64 cols | f32 data
//   u64 lut-edge-count | f64 edges (0 when the model has no LUT encoder)
//
// Loading validates that parameter names and shapes match the target model
// exactly — a checkpoint can only be restored into an identically-configured
// model.
#pragma once

#include <cstdint>
#include <string>

#include "tgnn/decoder.hpp"
#include "tgnn/inference.hpp"
#include "tgnn/model.hpp"

namespace tgnn::core {

/// Save model (+ optional decoder) parameters. The file is written to
/// "<path>.tmp", fsynced, then renamed over `path`, so a failed or
/// interrupted save leaves the previous checkpoint intact. Returns false on
/// I/O error.
bool save_checkpoint(const std::string& path, TgnModel& model,
                     Decoder* decoder = nullptr);

/// Restore parameters saved by save_checkpoint into an identically
/// configured model. Throws std::runtime_error on format/shape mismatch
/// and on a length field larger than the bytes left in the file (checked
/// before allocating); returns false if the file cannot be opened.
bool load_checkpoint(const std::string& path, TgnModel& model,
                     Decoder* decoder = nullptr);

// ---- runtime-state checkpoint ----------------------------------------------
//
// Snapshot of the serving engine's mutable per-vertex state plus the
// stream cursor — the fault-tolerance counterpart of the model checkpoint
// above. Format (little-endian, magic "TGNS", version 1):
//
//   magic | u32 version
//   u64 num_nodes | u64 mem_dim | u64 raw_mail_dim
//   u8 use_fifo | u64 fifo_capacity (0 for the unbounded sampler)
//   u64 stream_cursor            (next edge index to submit)
//   u64 mem rows    | per row: u64 node | f64 ts | f32[mem_dim]
//   u64 mail rows   | per row: u64 node | f64 ts | f32[raw_mail_dim]
//   u8 mail_valid[num_nodes]
//   u64 nbr rows    | per row: u64 node | u64 count
//                              | count x (u64 node, u64 eid, f64 ts)
//
// Rows are sparse (only touched vertices appear), so a checkpoint costs
// what the stream has actually written, not the full table footprint. On
// an out-of-core state the save path reads through the store, faulting
// spilled pages in as needed — spilled content round-trips bit-exactly.

/// Save `state` + the stream cursor, crash-safely like save_checkpoint.
/// Returns false on I/O error.
bool save_state(const std::string& path, const RuntimeState& state,
                std::uint64_t stream_cursor);

/// Restore into an identically-configured RuntimeState (same node count,
/// dims, and sampler kind): resets it, then replays the saved rows, so the
/// restored engine continues bit-identically to an uninterrupted run.
/// `num_edges` is the dataset's edge count. Throws std::runtime_error on
/// format/config mismatch and on corrupt content serving would trip over
/// later: a neighbor entry naming a vertex >= the node count or an edge id
/// >= `num_edges`, or a length field larger than the FIFO capacity or the
/// bytes left in the file (checked before allocating). Returns false if
/// the file cannot be opened.
bool load_state(const std::string& path, RuntimeState& state,
                std::uint64_t& stream_cursor, std::uint64_t num_edges);

}  // namespace tgnn::core
