#include "hitlist/checkpoint_io.h"

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>

#include "hitlist/corpus_io.h"
#include "proto/buffer.h"
#include "proto/crc32.h"

namespace v6::hitlist {

namespace {

constexpr std::array<std::uint8_t, 8> kMagic = {'V', '6', 'C', 'K',
                                                'P', 'T', '0', '1'};
// The state section's fixed fields (five u64 and the u32 vantage count)
// and one vantage entry (five u64).
constexpr std::size_t kStateFixedBytes = 5 * 8 + 4;
constexpr std::size_t kVantageBytes = 5 * 8;

}  // namespace

std::size_t save_checkpoint(std::ostream& out, const CheckpointState& state,
                            const Corpus& corpus) {
  proto::BufferWriter writer;
  writer.bytes(kMagic);
  writer.u64(static_cast<std::uint64_t>(state.window_start));
  writer.u64(static_cast<std::uint64_t>(state.window_end));
  writer.u64(static_cast<std::uint64_t>(state.resume_from));
  writer.u64(state.polls_attempted);
  writer.u64(state.polls_answered);
  writer.u32(static_cast<std::uint32_t>(state.vantage_health.size()));
  for (const VantageHealthStats& vh : state.vantage_health) {
    writer.u64(vh.polls);
    writer.u64(vh.answered);
    writer.u64(vh.lost_to_fault);
    writer.u64(vh.retries);
    writer.u64(vh.steered_polls);
  }
  writer.u32(proto::crc32(std::span(writer.data()).subspan(kMagic.size())));
  out.write(reinterpret_cast<const char*>(writer.data().data()),
            static_cast<std::streamsize>(writer.size()));
  if (!out) throw std::runtime_error("checkpoint write failed");
  // The embedded snapshot streams through the corpus codec in bounded
  // chunks; the corpus is never serialized whole in memory.
  return writer.size() + save_corpus(out, corpus);
}

CollectionCheckpoint load_checkpoint(std::istream& in) {
  const auto read_exact = [&in](std::span<std::uint8_t> dst) {
    in.read(reinterpret_cast<char*>(dst.data()),
            static_cast<std::streamsize>(dst.size()));
    return static_cast<std::size_t>(in.gcount()) == dst.size();
  };

  std::array<std::uint8_t, 8> magic{};
  if (!read_exact(magic) || magic != kMagic) {
    throw std::runtime_error("checkpoint: bad magic");
  }

  std::array<std::uint8_t, kStateFixedBytes> fixed{};
  if (!read_exact(fixed)) {
    throw std::runtime_error("checkpoint: truncated state");
  }
  std::uint32_t state_crc = proto::crc32(fixed);
  proto::BufferReader reader{std::span<const std::uint8_t>(fixed)};
  CheckpointState state;
  state.window_start = static_cast<util::SimTime>(reader.u64());
  state.window_end = static_cast<util::SimTime>(reader.u64());
  state.resume_from = static_cast<util::SimTime>(reader.u64());
  state.polls_attempted = reader.u64();
  state.polls_answered = reader.u64();
  const std::uint32_t vantage_count = reader.u32();
  // The vantage count is untrusted: entries are read one at a time, so
  // the vector only ever holds entries the stream actually delivered and
  // a hostile count fails as a truncated state, not as an allocation.
  for (std::uint32_t v = 0; v < vantage_count; ++v) {
    std::array<std::uint8_t, kVantageBytes> entry{};
    if (!read_exact(entry)) {
      throw std::runtime_error("checkpoint: truncated state");
    }
    state_crc = proto::crc32(entry, state_crc);
    proto::BufferReader entry_reader{std::span<const std::uint8_t>(entry)};
    VantageHealthStats& vh = state.vantage_health.emplace_back();
    vh.polls = entry_reader.u64();
    vh.answered = entry_reader.u64();
    vh.lost_to_fault = entry_reader.u64();
    vh.retries = entry_reader.u64();
    vh.steered_polls = entry_reader.u64();
  }
  std::array<std::uint8_t, 4> crc_bytes{};
  if (!read_exact(crc_bytes)) {
    throw std::runtime_error("checkpoint: truncated state");
  }
  if (proto::BufferReader{std::span<const std::uint8_t>(crc_bytes)}.u32() !=
      state_crc) {
    throw std::runtime_error("checkpoint: state CRC mismatch");
  }

  // The embedded corpus is the rest of the stream; corpus_io enforces its
  // own CRCs and rejects trailing bytes.
  return CollectionCheckpoint{std::move(state), load_corpus(in)};
}

std::size_t save_checkpoint_file(const std::string& path,
                                 const CheckpointState& state,
                                 const Corpus& corpus) {
  const std::string tmp = path + ".tmp";
  if (const auto parent = std::filesystem::path(path).parent_path();
      !parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // best-effort; the
    // open below reports the actionable failure
  }
  std::size_t written = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("checkpoint: cannot open " + tmp);
    }
    written = save_checkpoint(out, state, corpus);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("checkpoint: write failed for " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw std::runtime_error("checkpoint: rename to " + path +
                             " failed: " + ec.message());
  }
  return written;
}

CollectionCheckpoint load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("checkpoint: cannot open " + path);
  }
  return load_checkpoint(in);
}

}  // namespace v6::hitlist
