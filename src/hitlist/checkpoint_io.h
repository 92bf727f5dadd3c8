// Collection checkpoint serialization: the durable artifact that lets a
// seven-month passive collection survive a mid-run crash. A checkpoint is
// the PassiveCollector's CheckpointState cursor (window, resume point,
// counters, per-vantage health) followed by an embedded corpus snapshot
// (corpus_io format v2). Layout:
//
//   magic "V6CKPT01"             8 bytes
//   state: window_start(8) window_end(8) resume_from(8)
//          polls_attempted(8) polls_answered(8)
//          vantage count(4), then per vantage
//          polls/answered/lost_to_fault/retries/steered_polls (5 x 8)
//   state CRC32                  u32 over the state section
//   corpus snapshot              corpus_io v2 (self-checksummed)
//
// Every integer is big-endian and each section carries a CRC32, so a
// corrupted file fails loudly at load time instead of resuming from
// garbage. Both directions stream: the state section is a few hundred
// bytes, and the snapshot goes through corpus_io's chunked writer and
// loader, so neither a save nor a load holds the serialized corpus in
// memory.
#pragma once

#include <iosfwd>
#include <string>

#include "hitlist/corpus.h"
#include "hitlist/passive_collector.h"

namespace v6::hitlist {

struct CollectionCheckpoint {
  CheckpointState state;
  Corpus corpus;
};

// Writes one checkpoint; returns bytes written. Throws std::runtime_error
// when the stream rejects the write.
std::size_t save_checkpoint(std::ostream& out, const CheckpointState& state,
                            const Corpus& corpus);

// Loads a checkpoint that must end the stream. The state section is read
// one vantage entry at a time, so an untrusted vantage count never sizes
// an allocation. Throws std::runtime_error on bad magic, truncation, CRC
// mismatch in either section, or trailing bytes.
CollectionCheckpoint load_checkpoint(std::istream& in);

// Durable-file variants for the distributed layer: the checkpoint is
// written to `path + ".tmp"` and atomically renamed into place, so a
// crash mid-write never leaves a half-checkpoint where a reader (the
// coordinator, a recovering worker) expects a valid one. Returns bytes
// written. Throws std::runtime_error on any filesystem failure.
std::size_t save_checkpoint_file(const std::string& path,
                                 const CheckpointState& state,
                                 const Corpus& corpus);

// Loads a checkpoint from a file; same validation (and exceptions) as the
// stream loader, plus a loud error when the file cannot be opened.
CollectionCheckpoint load_checkpoint_file(const std::string& path);

}  // namespace v6::hitlist
