#include "dist/protocol.h"

#include <bit>
#include <map>
#include <span>
#include <stdexcept>

#include "proto/buffer.h"
#include "proto/checksum.h"

namespace v6::dist {

namespace {

constexpr char kMagic[8] = {'V', '6', 'D', 'I', 'S', 'T', '0', '1'};
constexpr std::size_t kMaxPath = 4096;

bool known_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kObsReport);
}

void put_string(proto::BufferWriter& writer, const std::string& s) {
  writer.u16(static_cast<std::uint16_t>(s.size()));
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(s.data()),
                         s.size()));
}

std::string get_string(proto::BufferReader& reader) {
  const std::uint16_t len = reader.u16();
  std::string out(len, '\0');
  reader.bytes(std::span(reinterpret_cast<std::uint8_t*>(out.data()), len));
  return out;
}

void put_labels(proto::BufferWriter& writer, const obs::Labels& labels) {
  writer.u16(static_cast<std::uint16_t>(labels.size()));
  for (const auto& [k, v] : labels) {
    put_string(writer, k);
    put_string(writer, v);
  }
}

obs::Labels get_labels(proto::BufferReader& reader) {
  const std::uint16_t n = reader.u16();
  // Each label pair costs >= 4 bytes on the wire; a count that couldn't
  // fit in the bytes left is garbage — reject before sizing anything.
  if (static_cast<std::size_t>(n) * 4 > reader.remaining()) {
    throw std::runtime_error("dist frame: malformed obs report payload");
  }
  obs::Labels labels;
  labels.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    std::string key = get_string(reader);
    std::string value = get_string(reader);
    labels.emplace_back(std::move(key), std::move(value));
  }
  return labels;
}

// Bounds-checks an untrusted element count against the bytes left, with
// `min_bytes` the smallest possible wire size of one element.
std::uint32_t get_count(proto::BufferReader& reader, std::size_t min_bytes) {
  const std::uint32_t n = reader.u32();
  if (static_cast<std::uint64_t>(n) * min_bytes > reader.remaining()) {
    throw std::runtime_error("dist frame: malformed obs report payload");
  }
  return n;
}

}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  if (frame.payload.size() > kMaxPayload) {
    throw std::runtime_error("dist frame: payload too large");
  }
  proto::BufferWriter writer;
  writer.bytes(std::span(reinterpret_cast<const std::uint8_t*>(kMagic), 8));
  writer.u8(static_cast<std::uint8_t>(frame.type));
  writer.u32(frame.sender);
  writer.u32(frame.subset);
  writer.u32(frame.epoch);
  writer.u64(frame.seq);
  writer.u64(frame.sim_time);
  writer.u32(static_cast<std::uint32_t>(frame.payload.size()));
  writer.bytes(frame.payload);
  // CRC over type..payload (everything after the magic), mirroring the
  // checkpoint format's section-CRC convention.
  writer.u32(proto::crc32(std::span(writer.data()).subspan(8)));
  return std::move(writer).take();
}

Frame decode_frame(std::span<const std::uint8_t> data, std::size_t* consumed) {
  proto::BufferReader reader(data);
  std::uint8_t magic[8];
  reader.bytes(magic);
  if (reader.truncated() ||
      !std::equal(std::begin(magic), std::end(magic), kMagic)) {
    throw std::runtime_error("dist frame: bad magic");
  }
  Frame frame;
  const std::uint8_t type = reader.u8();
  frame.sender = reader.u32();
  frame.subset = reader.u32();
  frame.epoch = reader.u32();
  frame.seq = reader.u64();
  frame.sim_time = reader.u64();
  const std::uint32_t payload_len = reader.u32();
  if (reader.truncated()) {
    throw std::runtime_error("dist frame: truncated header");
  }
  if (!known_type(type)) {
    throw std::runtime_error("dist frame: unknown type");
  }
  frame.type = static_cast<FrameType>(type);
  // Untrusted length sizes the read below; cap it before trusting it.
  if (payload_len > kMaxPayload) {
    throw std::runtime_error("dist frame: payload too large");
  }
  if (reader.remaining() < static_cast<std::size_t>(payload_len) + 4) {
    throw std::runtime_error("dist frame: truncated payload");
  }
  frame.payload.resize(payload_len);
  reader.bytes(frame.payload);
  const std::size_t body_end = data.size() - reader.remaining();
  const std::uint32_t crc = reader.u32();
  if (reader.truncated()) {
    throw std::runtime_error("dist frame: truncated CRC");
  }
  if (crc != proto::crc32(data.subspan(8, body_end - 8))) {
    throw std::runtime_error("dist frame: CRC mismatch");
  }
  if (consumed != nullptr) *consumed = data.size() - reader.remaining();
  return frame;
}

std::vector<std::uint8_t> encode_lease_grant(const LeaseGrant& grant) {
  proto::BufferWriter writer;
  writer.u64(grant.window_start);
  writer.u64(grant.window_end);
  writer.u64(grant.chunk_interval);
  writer.u64(grant.resume_from);
  writer.u32(grant.subset_count);
  put_string(writer, grant.checkpoint_path);
  return std::move(writer).take();
}

LeaseGrant decode_lease_grant(std::span<const std::uint8_t> payload) {
  proto::BufferReader reader(payload);
  LeaseGrant grant;
  grant.window_start = reader.u64();
  grant.window_end = reader.u64();
  grant.chunk_interval = reader.u64();
  grant.resume_from = reader.u64();
  grant.subset_count = reader.u32();
  grant.checkpoint_path = get_string(reader);
  if (reader.truncated() || reader.remaining() != 0) {
    throw std::runtime_error("dist frame: malformed lease grant payload");
  }
  return grant;
}

std::vector<std::uint8_t> encode_artifact(const Artifact& artifact) {
  proto::BufferWriter writer;
  put_string(writer, artifact.path);
  writer.u64(artifact.bytes);
  writer.u32(artifact.crc);
  return std::move(writer).take();
}

Artifact decode_artifact(std::span<const std::uint8_t> payload) {
  proto::BufferReader reader(payload);
  Artifact artifact;
  artifact.path = get_string(reader);
  artifact.bytes = reader.u64();
  artifact.crc = reader.u32();
  if (reader.truncated() || reader.remaining() != 0) {
    throw std::runtime_error("dist frame: malformed artifact payload");
  }
  return artifact;
}

std::vector<std::uint8_t> encode_obs_report(const ObsReport& report) {
  proto::BufferWriter writer;
  writer.u32(static_cast<std::uint32_t>(report.snapshot.samples.size()));
  for (const obs::MetricSample& s : report.snapshot.samples) {
    put_string(writer, s.name);
    put_string(writer, s.help);
    writer.u8(static_cast<std::uint8_t>(s.type));
    put_labels(writer, s.labels);
    switch (s.type) {
      case obs::MetricType::kCounter:
        writer.u64(s.counter_value);
        break;
      case obs::MetricType::kGauge:
        writer.u64(std::bit_cast<std::uint64_t>(s.gauge_value));
        break;
      case obs::MetricType::kHistogram: {
        writer.u32(static_cast<std::uint32_t>(s.histogram.bounds.size()));
        for (const double b : s.histogram.bounds) {
          writer.u64(std::bit_cast<std::uint64_t>(b));
        }
        if (s.histogram.counts.size() != s.histogram.bounds.size() + 1) {
          throw std::runtime_error(
              "dist frame: obs report histogram bucket count mismatch");
        }
        for (const std::uint64_t c : s.histogram.counts) writer.u64(c);
        writer.u64(s.histogram.count);
        writer.u64(std::bit_cast<std::uint64_t>(s.histogram.sum));
        break;
      }
    }
  }
  writer.u32(static_cast<std::uint32_t>(report.windows.size()));
  for (const obs::WindowRecord& w : report.windows) {
    writer.u64(static_cast<std::uint64_t>(w.begin));
    writer.u64(static_cast<std::uint64_t>(w.end));
    put_string(writer, w.stage);
    writer.u32(static_cast<std::uint32_t>(w.counters.size()));
    for (const obs::WindowCounter& c : w.counters) {
      put_string(writer, c.name);
      put_labels(writer, c.labels);
      writer.u64(c.delta);
    }
    writer.u32(static_cast<std::uint32_t>(w.gauges.size()));
    for (const obs::WindowGauge& g : w.gauges) {
      put_string(writer, g.name);
      put_labels(writer, g.labels);
      writer.u64(std::bit_cast<std::uint64_t>(g.value));
    }
    writer.u32(static_cast<std::uint32_t>(w.vantages.size()));
    for (const obs::VantageWindow& v : w.vantages) {
      writer.u32(v.vantage);
      writer.u64(v.polls);
      writer.u64(v.answered);
      writer.u64(v.fault_lost);
      writer.u64(v.records);
    }
    writer.u32(static_cast<std::uint32_t>(w.histograms.size()));
    for (const obs::WindowHistogram& h : w.histograms) {
      put_string(writer, h.name);
      put_labels(writer, h.labels);
      writer.u64(h.count_delta);
      writer.u64(std::bit_cast<std::uint64_t>(h.sum_delta));
    }
  }
  return std::move(writer).take();
}

ObsReport decode_obs_report(std::span<const std::uint8_t> payload) {
  const auto malformed = [] {
    return std::runtime_error("dist frame: malformed obs report payload");
  };
  proto::BufferReader reader(payload);
  ObsReport report;
  // Minimum wire sizes per element (strings cost their 2-byte length
  // prefix even when empty) bound every allocation an attacker can ask
  // for to the payload bytes actually present.
  const std::uint32_t sample_count = get_count(reader, 7);
  report.snapshot.samples.reserve(sample_count);
  for (std::uint32_t i = 0; i < sample_count; ++i) {
    obs::MetricSample s;
    s.name = get_string(reader);
    s.help = get_string(reader);
    const std::uint8_t type = reader.u8();
    if (reader.truncated() ||
        type > static_cast<std::uint8_t>(obs::MetricType::kHistogram)) {
      throw malformed();
    }
    s.type = static_cast<obs::MetricType>(type);
    s.labels = get_labels(reader);
    switch (s.type) {
      case obs::MetricType::kCounter:
        s.counter_value = reader.u64();
        break;
      case obs::MetricType::kGauge:
        s.gauge_value = std::bit_cast<double>(reader.u64());
        break;
      case obs::MetricType::kHistogram: {
        const std::uint32_t bound_count = get_count(reader, 8);
        // bounds + per-bucket counts (bounds+1) + count + sum.
        if ((static_cast<std::uint64_t>(bound_count) * 2 + 3) * 8 >
            reader.remaining()) {
          throw malformed();
        }
        s.histogram.bounds.reserve(bound_count);
        for (std::uint32_t b = 0; b < bound_count; ++b) {
          s.histogram.bounds.push_back(std::bit_cast<double>(reader.u64()));
        }
        s.histogram.counts.reserve(bound_count + 1);
        for (std::uint32_t b = 0; b <= bound_count; ++b) {
          s.histogram.counts.push_back(reader.u64());
        }
        s.histogram.count = reader.u64();
        s.histogram.sum = std::bit_cast<double>(reader.u64());
        break;
      }
    }
    report.snapshot.samples.push_back(std::move(s));
  }
  const std::uint32_t window_count = get_count(reader, 34);
  report.windows.reserve(window_count);
  for (std::uint32_t i = 0; i < window_count; ++i) {
    obs::WindowRecord w;
    w.begin = static_cast<util::SimTime>(reader.u64());
    w.end = static_cast<util::SimTime>(reader.u64());
    w.stage = get_string(reader);
    const std::uint32_t counter_count = get_count(reader, 12);
    w.counters.reserve(counter_count);
    for (std::uint32_t c = 0; c < counter_count; ++c) {
      obs::WindowCounter wc;
      wc.name = get_string(reader);
      wc.labels = get_labels(reader);
      wc.delta = reader.u64();
      w.counters.push_back(std::move(wc));
    }
    const std::uint32_t gauge_count = get_count(reader, 12);
    w.gauges.reserve(gauge_count);
    for (std::uint32_t g = 0; g < gauge_count; ++g) {
      obs::WindowGauge wg;
      wg.name = get_string(reader);
      wg.labels = get_labels(reader);
      wg.value = std::bit_cast<double>(reader.u64());
      w.gauges.push_back(std::move(wg));
    }
    const std::uint32_t vantage_count = get_count(reader, 36);
    w.vantages.reserve(vantage_count);
    for (std::uint32_t v = 0; v < vantage_count; ++v) {
      obs::VantageWindow vw;
      vw.vantage = reader.u32();
      vw.polls = reader.u64();
      vw.answered = reader.u64();
      vw.fault_lost = reader.u64();
      vw.records = reader.u64();
      w.vantages.push_back(vw);
    }
    const std::uint32_t hist_count = get_count(reader, 20);
    w.histograms.reserve(hist_count);
    for (std::uint32_t h = 0; h < hist_count; ++h) {
      obs::WindowHistogram wh;
      wh.name = get_string(reader);
      wh.labels = get_labels(reader);
      wh.count_delta = reader.u64();
      wh.sum_delta = std::bit_cast<double>(reader.u64());
      w.histograms.push_back(std::move(wh));
    }
    report.windows.push_back(std::move(w));
  }
  if (reader.truncated() || reader.remaining() != 0) {
    throw malformed();
  }
  return report;
}

std::optional<std::string> validate_artifact_path(std::string_view path) {
  if (path.empty()) return "empty path";
  if (path.size() > kMaxPath) return "path too long";
  if (path.front() == '/') return "absolute path";
  for (const char c : path) {
    if (c == '\0') return "NUL in path";
    if (c == '\n' || c == '\r') return "newline in path";
    if (c == '\\') return "backslash in path";
  }
  // Reject any ".." segment (plain, leading, trailing, or interior).
  std::size_t pos = 0;
  while (pos <= path.size()) {
    const std::size_t slash = path.find('/', pos);
    const std::string_view segment =
        path.substr(pos, (slash == std::string_view::npos ? path.size()
                                                          : slash) -
                             pos);
    if (segment == "..") return "path escapes its directory";
    if (slash == std::string_view::npos) break;
    pos = slash + 1;
  }
  return std::nullopt;
}

std::optional<std::string> validate_lease_grant(const Frame& frame,
                                                const LeaseGrant& grant) {
  if (grant.window_end <= grant.window_start) {
    return "lease window is empty or inverted";
  }
  if (grant.chunk_interval == 0) return "zero chunk interval";
  if (grant.resume_from < grant.window_start ||
      grant.resume_from >= grant.window_end) {
    return "resume point outside the lease window";
  }
  if (grant.subset_count == 0) return "zero subset count";
  if (frame.subset >= grant.subset_count) return "subset id out of range";
  if (!grant.checkpoint_path.empty()) {
    return validate_artifact_path(grant.checkpoint_path);
  }
  if (grant.resume_from != grant.window_start) {
    return "recovery lease without a checkpoint path";
  }
  return std::nullopt;
}

std::string artifact_path(std::uint32_t part, std::uint32_t epoch,
                          std::uint64_t t) {
  return "ckpt/s" + std::to_string(part) + "-e" + std::to_string(epoch) +
         "-t" + std::to_string(t) + ".v6ckpt";
}

std::optional<std::string> lint_dist_frames(std::string_view log) {
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(log.data()), log.size());
  std::map<std::uint32_t, std::uint64_t> next_seq;  // per sender
  std::size_t offset = 0;
  std::size_t index = 0;
  const auto fail = [&](const std::string& reason) {
    return "frame " + std::to_string(index) + ": " + reason;
  };
  while (offset < bytes.size()) {
    Frame frame;
    std::size_t consumed = 0;
    try {
      frame = decode_frame(bytes.subspan(offset), &consumed);
    } catch (const std::exception& e) {
      return fail(e.what());
    }
    const auto [it, fresh] = next_seq.try_emplace(frame.sender, 0);
    if (frame.seq != it->second) {
      return fail("sender " + std::to_string(frame.sender) +
                  " seq " + std::to_string(frame.seq) + ", expected " +
                  std::to_string(it->second));
    }
    it->second = frame.seq + 1;
    switch (frame.type) {
      case FrameType::kHello:
      case FrameType::kHeartbeat:
      case FrameType::kShutdown:
      case FrameType::kRevoke:
        if (!frame.payload.empty()) return fail("unexpected payload");
        break;
      case FrameType::kLeaseGrant: {
        if (frame.sender != kCoordinatorId) {
          return fail("lease grant from non-coordinator");
        }
        LeaseGrant grant;
        try {
          grant = decode_lease_grant(frame.payload);
        } catch (const std::exception& e) {
          return fail(e.what());
        }
        if (const auto why = validate_lease_grant(frame, grant)) {
          return fail(*why);
        }
        break;
      }
      case FrameType::kCheckpointUpload:
      case FrameType::kComplete: {
        if (frame.sender == kCoordinatorId) {
          return fail("upload from the coordinator");
        }
        Artifact artifact;
        try {
          artifact = decode_artifact(frame.payload);
        } catch (const std::exception& e) {
          return fail(e.what());
        }
        if (const auto why = validate_artifact_path(artifact.path)) {
          return fail(*why);
        }
        if (frame.subset == kNoSubset) return fail("upload without a subset");
        break;
      }
      case FrameType::kObsReport: {
        if (frame.sender == kCoordinatorId) {
          return fail("obs report from the coordinator");
        }
        if (frame.subset == kNoSubset) {
          return fail("obs report without a subset");
        }
        try {
          (void)decode_obs_report(frame.payload);
        } catch (const std::exception& e) {
          return fail(e.what());
        }
        break;
      }
    }
    offset += consumed;
    ++index;
  }
  return std::nullopt;
}

}  // namespace v6::dist
