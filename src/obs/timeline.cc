#include "obs/timeline.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "obs/exposition.h"

namespace v6::obs {

namespace {

// Same injective key the registry index uses: name + '\x1f'-joined labels.
std::string series_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key.push_back('\x1f');
    key.append(k);
    key.push_back('\x1f');
    key.append(v);
  }
  return key;
}

// If `name` is one of the per-vantage collector families, returns the
// VantageWindow field its delta accumulates into; nullptr otherwise.
std::uint64_t VantageWindow::* vantage_field(std::string_view name) {
  if (name == kVantagePollsFamily) return &VantageWindow::polls;
  if (name == kVantageAnsweredFamily) return &VantageWindow::answered;
  if (name == kVantageFaultLostFamily) return &VantageWindow::fault_lost;
  if (name == kVantageRecordsFamily) return &VantageWindow::records;
  return nullptr;
}

// The decimal "vantage" label value, or nullopt when absent/malformed
// (the sample then stays in the generic counter list).
std::optional<std::uint32_t> vantage_id(const Labels& labels) {
  for (const auto& [k, v] : labels) {
    if (k != "vantage") continue;
    std::uint32_t id = 0;
    const auto [ptr, ec] =
        std::from_chars(v.data(), v.data() + v.size(), id);
    if (ec != std::errc{} || ptr != v.data() + v.size()) return std::nullopt;
    return id;
  }
  return std::nullopt;
}

}  // namespace

TimelineSampler::TimelineSampler(const Registry& registry,
                                 util::SimDuration interval,
                                 util::SimTime origin)
    : registry_(&registry),
      grid_{origin, std::max<util::SimDuration>(interval, 1)},
      last_(origin) {}

util::SimTime TimelineSampler::next_boundary(util::SimTime t) const noexcept {
  return grid_.next_after(t);
}

bool TimelineSampler::on_boundary(util::SimTime t) const noexcept {
  return grid_.contains(t);
}

void TimelineSampler::sample(util::SimTime at, std::string_view stage) {
  WindowRecord rec;
  rec.begin = last_;
  // Stages replay sim windows the pipeline already passed (campaigns
  // re-cover the collection window); clamping keeps the timeline monotone.
  rec.end = std::max(at, last_);
  rec.stage = std::string(stage);

  const Snapshot snap = registry_->snapshot();
  // std::map: vantage series come out sorted by id.
  std::map<std::uint32_t, VantageWindow> vantages;
  for (const auto& s : snap.samples) {
    switch (s.type) {
      case MetricType::kCounter: {
        auto [it, inserted] =
            prev_counters_.try_emplace(series_key(s.name, s.labels), 0);
        const std::uint64_t delta = s.counter_value - it->second;
        it->second = s.counter_value;
        if (delta == 0) break;
        if (auto field = vantage_field(s.name)) {
          if (const auto id = vantage_id(s.labels)) {
            VantageWindow& vw = vantages[*id];
            vw.vantage = *id;
            vw.*field += delta;
            break;
          }
        }
        rec.counters.push_back(WindowCounter{s.name, s.labels, delta});
        break;
      }
      case MetricType::kGauge: {
        // Bit comparison, not ==: NaN-safe and distinguishes -0.0, so the
        // record is exactly "the stored bits changed".
        const std::uint64_t bits = std::bit_cast<std::uint64_t>(s.gauge_value);
        auto [it, inserted] =
            prev_gauge_bits_.try_emplace(series_key(s.name, s.labels), bits);
        if (!inserted) {
          if (it->second == bits) break;
          it->second = bits;
        }
        rec.gauges.push_back(WindowGauge{s.name, s.labels, s.gauge_value});
        break;
      }
      case MetricType::kHistogram: {
        // Count/sum movement only; bucket shapes stay in the end-of-run
        // snapshot. These fields carry wall-clock timings (stage
        // durations, serve latency) and are explicitly outside the
        // timeline's bit-identity contract.
        const std::string key = series_key(s.name, s.labels);
        auto [cit, cfresh] = prev_hist_counts_.try_emplace(key, 0);
        auto [sit, sfresh] = prev_hist_sums_.try_emplace(key, 0.0);
        const std::uint64_t count_delta = s.histogram.count - cit->second;
        const double sum_delta = s.histogram.sum - sit->second;
        cit->second = s.histogram.count;
        sit->second = s.histogram.sum;
        if (count_delta == 0) break;
        rec.histograms.push_back(
            WindowHistogram{s.name, s.labels, count_delta, sum_delta});
        break;
      }
    }
  }
  rec.vantages.reserve(vantages.size());
  for (auto& [id, vw] : vantages) rec.vantages.push_back(vw);

  last_ = rec.end;
  timeline_.push_back(std::move(rec));
}

// --- Exposition ------------------------------------------------------------

namespace {

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

// `name{label="v"}` — the Prometheus series notation, reused here so
// timeline series names match the metrics exposition byte for byte.
std::string series_name(std::string_view name, const Labels& labels) {
  std::string out(name);
  out += detail::label_block(labels);
  return out;
}

void append_window_json(std::string& out, const WindowRecord& rec) {
  out += "{\"begin\":";
  append_i64(out, rec.begin);
  out += ",\"end\":";
  append_i64(out, rec.end);
  out += ",\"stage\":";
  detail::append_json_string(out, rec.stage);
  out += ",\"counters\":{";
  bool first = true;
  for (const WindowCounter& c : rec.counters) {
    if (!first) out.push_back(',');
    first = false;
    detail::append_json_string(out, series_name(c.name, c.labels));
    out.push_back(':');
    append_u64(out, c.delta);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const WindowGauge& g : rec.gauges) {
    if (!first) out.push_back(',');
    first = false;
    detail::append_json_string(out, series_name(g.name, g.labels));
    out.push_back(':');
    if (std::isfinite(g.value)) {
      out += detail::format_double(g.value);
    } else {
      out += "null";  // JSON has no Inf/NaN literals
    }
  }
  out += "},\"histograms\":{";
  first = true;
  for (const WindowHistogram& h : rec.histograms) {
    if (!first) out.push_back(',');
    first = false;
    detail::append_json_string(out, series_name(h.name, h.labels));
    out += ":{\"count\":";
    append_u64(out, h.count_delta);
    out += ",\"sum\":";
    if (std::isfinite(h.sum_delta)) {
      out += detail::format_double(h.sum_delta);
    } else {
      out += "null";
    }
    out.push_back('}');
  }
  out += "},\"vantages\":[";
  first = true;
  for (const VantageWindow& vw : rec.vantages) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"vantage\":";
    append_u64(out, vw.vantage);
    out += ",\"polls\":";
    append_u64(out, vw.polls);
    out += ",\"answered\":";
    append_u64(out, vw.answered);
    out += ",\"fault_lost\":";
    append_u64(out, vw.fault_lost);
    out += ",\"records\":";
    append_u64(out, vw.records);
    out.push_back('}');
  }
  out += "]}";
}

std::string render_timeline_jsonl(const Timeline& timeline) {
  std::string out;
  out.reserve(timeline.size() * 192);
  for (const WindowRecord& rec : timeline) {
    append_window_json(out, rec);
    out.push_back('\n');
  }
  return out;
}

// RFC 4180: quote when the field contains a comma, quote, or newline;
// double embedded quotes.
void append_csv_field(std::string& out, std::string_view field) {
  if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
    out += field;
    return;
  }
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
}

std::string render_timeline_csv(const Timeline& timeline) {
  std::string out = "begin,end,stage,kind,series,value\n";
  const auto row = [&out](util::SimTime begin, util::SimTime end,
                          std::string_view stage, std::string_view kind,
                          std::string_view series, std::string_view value) {
    append_i64(out, begin);
    out.push_back(',');
    append_i64(out, end);
    out.push_back(',');
    append_csv_field(out, stage);
    out.push_back(',');
    out += kind;
    out.push_back(',');
    append_csv_field(out, series);
    out.push_back(',');
    out += value;
    out.push_back('\n');
  };
  std::string num;
  const auto u64_text = [&num](std::uint64_t v) -> std::string_view {
    num.clear();
    append_u64(num, v);
    return num;
  };
  for (const WindowRecord& rec : timeline) {
    for (const WindowCounter& c : rec.counters) {
      row(rec.begin, rec.end, rec.stage, "counter",
          series_name(c.name, c.labels), u64_text(c.delta));
    }
    for (const WindowGauge& g : rec.gauges) {
      row(rec.begin, rec.end, rec.stage, "gauge",
          series_name(g.name, g.labels), detail::format_double(g.value));
    }
    for (const WindowHistogram& h : rec.histograms) {
      row(rec.begin, rec.end, rec.stage, "histogram_count",
          series_name(h.name, h.labels), u64_text(h.count_delta));
      row(rec.begin, rec.end, rec.stage, "histogram_sum",
          series_name(h.name, h.labels), detail::format_double(h.sum_delta));
    }
    for (const VantageWindow& vw : rec.vantages) {
      std::string vantage;
      append_u64(vantage, vw.vantage);
      row(rec.begin, rec.end, rec.stage, "vantage_polls", vantage,
          u64_text(vw.polls));
      row(rec.begin, rec.end, rec.stage, "vantage_answered", vantage,
          u64_text(vw.answered));
      row(rec.begin, rec.end, rec.stage, "vantage_fault_lost", vantage,
          u64_text(vw.fault_lost));
      row(rec.begin, rec.end, rec.stage, "vantage_records", vantage,
          u64_text(vw.records));
    }
  }
  return out;
}

// --- Minimal JSON validator ------------------------------------------------

class JsonLinter {
 public:
  explicit JsonLinter(std::string_view text) : text_(text) {}

  std::optional<std::string> lint() {
    skip_ws();
    if (!value()) return error();
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing data after value");
    return std::nullopt;
  }

 private:
  static constexpr int kMaxDepth = 64;

  std::optional<std::string> error() const {
    return "offset " + std::to_string(error_pos_) + ": " + error_;
  }

  bool fail_at(std::size_t pos, std::string_view what) {
    if (error_.empty()) {
      error_pos_ = pos;
      error_ = std::string(what);
    }
    return false;
  }
  std::optional<std::string> fail(std::string_view what) {
    fail_at(pos_, what);
    return error();
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return fail_at(pos_, "invalid literal");
    }
    pos_ += word.size();
    return true;
  }

  bool string() {
    ++pos_;  // opening quote
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c < 0x20) return fail_at(pos_, "raw control char in string");
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return fail_at(pos_, "dangling escape");
        const char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return fail_at(pos_, "invalid \\u escape");
            }
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return fail_at(pos_, "invalid escape");
        }
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) return fail_at(pos_, "unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      const std::size_t first = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      return pos_ > first;
    };
    const std::size_t int_start = pos_;
    if (!digits()) return fail_at(start, "invalid number");
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. invalid).
    if (pos_ - int_start > 1 && text_[int_start] == '0') {
      return fail_at(start, "invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) return fail_at(start, "invalid number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) return fail_at(start, "invalid number");
    }
    return true;
  }

  bool value() {
    if (++depth_ > kMaxDepth) return fail_at(pos_, "nesting too deep");
    bool ok = false;
    if (pos_ >= text_.size()) {
      ok = fail_at(pos_, "expected value");
    } else {
      switch (text_[pos_]) {
        case '{': ok = object(); break;
        case '[': ok = array(); break;
        case '"': ok = string(); break;
        case 't': ok = literal("true"); break;
        case 'f': ok = literal("false"); break;
        case 'n': ok = literal("null"); break;
        default: ok = number(); break;
      }
    }
    --depth_;
    return ok;
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail_at(pos_, "expected object key");
      }
      if (!string()) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail_at(pos_, "expected ':'");
      }
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail_at(pos_, "expected ',' or '}'");
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail_at(pos_, "expected ',' or ']'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::size_t error_pos_ = 0;
  std::string error_;
};

// Integer value of `"key":<int>` in a line our renderer emitted. The
// timeline stages are fixed identifiers, so a key pattern can't occur
// inside a string value.
std::optional<std::int64_t> top_level_int(std::string_view line,
                                          std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return std::nullopt;
  const std::size_t value_at = at + pattern.size();
  std::int64_t parsed = 0;
  const auto [ptr, ec] = std::from_chars(
      line.data() + value_at, line.data() + line.size(), parsed);
  if (ec != std::errc{} || ptr == line.data() + value_at) return std::nullopt;
  return parsed;
}

}  // namespace

std::optional<TimelineFormat> parse_timeline_format(std::string_view name) {
  if (name == "jsonl" || name == "json") return TimelineFormat::kJsonl;
  if (name == "csv") return TimelineFormat::kCsv;
  return std::nullopt;
}

std::string_view timeline_format_suffix(TimelineFormat format) {
  return format == TimelineFormat::kCsv ? "csv" : "jsonl";
}

std::string render_timeline(const Timeline& timeline, TimelineFormat format) {
  return format == TimelineFormat::kCsv ? render_timeline_csv(timeline)
                                        : render_timeline_jsonl(timeline);
}

std::string render_window_json(const WindowRecord& rec) {
  std::string out;
  append_window_json(out, rec);
  return out;
}

std::optional<std::string> lint_json(std::string_view text) {
  return JsonLinter(text).lint();
}

std::optional<std::string> lint_timeline_jsonl(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t start = 0;
  std::optional<std::int64_t> prev_end;
  const auto fail = [&](std::string_view what) {
    return "line " + std::to_string(line_no) + ": " + std::string(what);
  };
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] != '{') return fail("window is not a JSON object");
    if (const auto err = lint_json(line)) return fail(*err);
    const auto begin = top_level_int(line, "begin");
    const auto end = top_level_int(line, "end");
    if (!begin || !end) return fail("missing begin/end");
    if (line.find("\"stage\":") == std::string_view::npos) {
      return fail("missing stage");
    }
    if (*begin > *end) return fail("begin after end");
    if (prev_end && *begin != *prev_end) {
      return fail("gap: begin does not match previous window's end");
    }
    prev_end = *end;
  }
  return std::nullopt;
}

}  // namespace v6::obs
