#include "bench.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace v6bench {

void Checks::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "CHECK FAILED: " << what << "\n";
  }
}

void Checks::gate(const std::string& name, const std::string& value) {
  if (const auto it = options_->expect.find(name);
      it != options_->expect.end()) {
    check(value == it->second,
          name + " = " + value + ", expected " + it->second);
    return;
  }
  const auto [it, inserted] = first_.emplace(name, value);
  if (inserted) {
    std::cout << "gated  " << name << " = " << value << "\n";
    return;
  }
  check(value == it->second, name + " = " + value +
                                  " differs from the first repetition's " +
                                  it->second);
}

void Checks::record(const std::string& name, const std::string& value) {
  const auto [it, inserted] = recorded_.emplace(name, value);
  if (inserted) {
    std::cout << "record " << name << " = " << value << " (not gated)\n";
  } else if (it->second != value) {
    std::cout << "record " << name << " = " << value
              << " (varies between repetitions; not gated)\n";
    it->second = value;
  }
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

constexpr std::uint64_t kExact = 128;
constexpr unsigned kSubBits = 6;  // 64 sub-buckets per octave

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kExact) return static_cast<std::size_t>(ns);
  const unsigned e = static_cast<unsigned>(std::bit_width(ns)) - 1;  // >= 7
  const std::uint64_t sub = (ns >> (e - kSubBits)) - (1ull << kSubBits);
  return kExact + (e - 7) * (1u << kSubBits) + sub;
}

// Midpoint of bucket b, in nanoseconds.
double bucket_mid(std::size_t b) {
  if (b < kExact) return static_cast<double>(b);
  const std::size_t i = b - kExact;
  const unsigned e = static_cast<unsigned>(i >> kSubBits) + 7;
  const std::uint64_t sub = i & ((1u << kSubBits) - 1);
  const double lo = static_cast<double>(((1ull << kSubBits) + sub)
                                        << (e - kSubBits));
  const double width = static_cast<double>(1ull << (e - kSubBits));
  return lo + width / 2;
}

}  // namespace

void LatencyHistogram::add(std::uint64_t ns) {
  const std::size_t b = bucket_of(ns);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen > rank) return bucket_mid(b);
  }
  return bucket_mid(buckets_.size() - 1);
}

double LatencyHistogram::highest_percentile(std::uint64_t tail) const {
  if (count_ <= tail) return 0;
  return 100.0 * static_cast<double>(count_ - tail) /
         static_cast<double>(count_);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), t0_(Clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0_)
      .count();
}

int SpanRecorder::begin(const std::string& name, std::optional<int> parent,
                        int tid) {
  if (!enabled_) return -1;
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.start_ns = start;
  span.run = run_;
  span.tid = tid;
  span.parent = parent ? *parent : (open_.empty() ? -1 : open_.back());
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  if (!parent) open_.push_back(id);
  return id;
}

void SpanRecorder::end(int id) {
  if (id < 0) return;
  const std::int64_t stop = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = stop;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

int SpanRecorder::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_.empty() ? -1 : open_.back();
}

namespace {

// Nanoseconds of [start, end) covered by the union of `children`.
std::int64_t covered(std::vector<std::pair<std::int64_t, std::int64_t>>
                         children,
                     std::int64_t start, std::int64_t end) {
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t reach = start;
  for (auto [lo, hi] : children) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (hi > lo) {
      total += hi - lo;
      reach = hi;
    }
  }
  return total;
}

}  // namespace

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    const std::int64_t dur = s.end_ns - s.start_ns;
    Totals& t = out[s.name];
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s +=
        static_cast<double>(dur - covered(children[i], s.start_ns, s.end_ns)) *
        1e-9;
    ++t.calls;
  }
  return out;
}

std::string SpanRecorder::chrome_trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Complete ("X") events sorted by start, so ts never decreases within a
  // thread lane; ts and dur are whole microseconds.
  std::vector<std::size_t> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return spans_[a].start_ns < spans_[b].start_ns;
  });
  std::ostringstream out;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const std::size_t i : order) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":"
        << s.start_ns / 1000 << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000
        << ",\"pid\":1,\"tid\":" << s.tid << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace v6bench
