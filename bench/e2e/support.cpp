#include "support.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>

namespace bench {

// ---------------------------------------------------------------------------
// Samples / metrics
// ---------------------------------------------------------------------------

double Samples::quantile(double q) const {
  if (v_.empty()) return 0.0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  double pos = q * static_cast<double>(s.size() - 1);
  usize lo = static_cast<usize>(pos);
  usize hi = std::min(lo + 1, s.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return s[lo] + frac * (s[hi] - s[lo]);
}

double Samples::sum() const {
  double t = 0;
  for (double x : v_) t += x;
  return t;
}

double Samples::mean() const {
  return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

void Windows::add(i64 doneNs, double latency, bool good) {
  if (doneNs < start_) return;
  const usize i = static_cast<usize>((doneNs - start_) / width_);
  if (i >= win_.size()) win_.resize(i + 1);
  win_[i].lat.add(latency);
  win_[i].good += good ? 1 : 0;
}

void Windows::readCpu(i64 tNs, pid_t pid) {
  if (tNs < start_) return;
  const usize b = static_cast<usize>((tNs - start_) / width_);
  if (b >= cpu_.size()) cpu_.resize(b + 1, -1.0);
  if (cpu_[b] < 0) cpu_[b] = cpuSeconds(pid);
}

void Windows::close(i64 endNs, pid_t pid) {
  usize full = static_cast<usize>(std::max<i64>(0, endNs - start_) / width_);
  if (full == 0) {
    // The ops recorded so far all sit in window 0.
    full = 1;
    width_ = std::max<i64>(1, endNs - start_);
    cpu_.resize(2, -1.0);
    cpu_[1] = cpuSeconds(pid);
  }
  win_.resize(full);
  cpu_.resize(full + 1, -1.0);
}

void Windows::merge(const Windows& o) {
  if (o.win_.size() > win_.size()) win_.resize(o.win_.size());
  for (usize i = 0; i < o.win_.size(); ++i) {
    win_[i].lat.merge(o.win_[i].lat);
    win_[i].good += o.win_[i].good;
  }
}

double Windows::rate() const {
  Samples per;
  for (const auto& w : win_) {
    per.add(static_cast<double>(w.good) * 1e9 / static_cast<double>(width_));
  }
  return per.quantile(0.5);
}

double Windows::quantile(double q) const {
  Samples per;
  for (const auto& w : win_) {
    if (!w.lat.empty()) per.add(w.lat.quantile(q));
  }
  return per.quantile(0.5);
}

double Windows::cpuMsPerOp() const {
  Samples per;
  for (usize i = 0; i < win_.size(); ++i) {
    if (cpu_[i] < 0 || cpu_[i + 1] < 0 || win_[i].lat.empty()) continue;
    per.add((cpu_[i + 1] - cpu_[i]) * 1e3 / static_cast<double>(win_[i].lat.size()));
  }
  return per.quantile(0.5);
}

namespace {

std::string fmtDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jsonStr(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& row : rows_) {
    if (row.first == name) {
      row.second = {value, unit};
      return;
    }
  }
  rows_.push_back({name, {value, unit}});
}

std::string MetricSet::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, vu] : rows_) {
    if (!first) out += ", ";
    first = false;
    out += jsonStr(name) + ": {\"value\": " + fmtDouble(vu.first) +
           ", \"unit\": " + jsonStr(vu.second) + "}";
  }
  return out + "}";
}

void RunResult::fail(const std::string& what) {
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

u64 SpanLog::add(usize lane, const char* name, u64 parent, u64 req,
                 i64 startNs, i64 endNs) {
  if (!enabled) return 0;
  const u64 id = newId();
  auto& v = lanes_[lane % kLanes];
  if (v.size() < kMaxPerLane) v.push_back({name, id, parent, req, startNs, endNs});
  return id;
}

bool SpanLog::writeChrome(const std::string& path) const {
  i64 t0 = 0;
  bool any = false;
  for (const auto& v : lanes_) {
    for (const Span& s : v) {
      if (!any || s.startNs < t0) t0 = s.startNs;
      any = true;
    }
  }
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
  bool first = true;
  char buf[96];
  for (usize lane = 0; lane < kLanes; ++lane) {
    for (const Span& s : lanes_[lane]) {
      out << (first ? "\n" : ",\n");
      first = false;
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.startNs - t0) / 1e3);
      out << "{\"name\": " << jsonStr(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
          << lane << ", \"ts\": " << buf;
      std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(s.endNs - s.startNs) / 1e3);
      out << ", \"dur\": " << buf << ", \"args\": {\"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"req\": " << s.req << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view s) : s_(s) {}

  std::optional<Json> document() {
    Json v;
    if (!value(v, 0)) return std::nullopt;
    ws();
    if (p_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  static constexpr int kMaxDepth = 32;

  void ws() {
    while (p_ < s_.size() &&
           (s_[p_] == ' ' || s_[p_] == '\n' || s_[p_] == '\r' || s_[p_] == '\t')) {
      ++p_;
    }
  }

  bool lit(std::string_view w) {
    if (s_.substr(p_, w.size()) != w) return false;
    p_ += w.size();
    return true;
  }

  bool string(std::string& out) {
    if (p_ >= s_.size() || s_[p_] != '"') return false;
    ++p_;
    while (p_ < s_.size()) {
      char c = s_[p_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (p_ >= s_.size()) return false;
      char e = s_[p_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u':
          if (p_ + 4 > s_.size()) return false;
          p_ += 4;  // code point kept opaque: response checks need no decode
          out += '?';
          break;
        default: return false;
      }
    }
    return false;
  }

  bool number(double& out) {
    usize start = p_;
    if (p_ < s_.size() && s_[p_] == '-') ++p_;
    while (p_ < s_.size() && ((s_[p_] >= '0' && s_[p_] <= '9') || s_[p_] == '.' ||
                              s_[p_] == 'e' || s_[p_] == 'E' || s_[p_] == '+' ||
                              s_[p_] == '-')) {
      ++p_;
    }
    if (p_ == start) return false;
    std::string tmp(s_.substr(start, p_ - start));
    char* end = nullptr;
    out = std::strtod(tmp.c_str(), &end);
    return end == tmp.c_str() + tmp.size();
  }

  bool value(Json& v, int depth) {
    if (depth > kMaxDepth) return false;
    ws();
    if (p_ >= s_.size()) return false;
    char c = s_[p_];
    if (c == '{') {
      ++p_;
      v.type = Json::Type::kObj;
      ws();
      if (p_ < s_.size() && s_[p_] == '}') {
        ++p_;
        return true;
      }
      for (;;) {
        ws();
        std::string key;
        if (!string(key)) return false;
        ws();
        if (p_ >= s_.size() || s_[p_] != ':') return false;
        ++p_;
        Json child;
        if (!value(child, depth + 1)) return false;
        v.obj.emplace_back(std::move(key), std::move(child));
        ws();
        if (p_ < s_.size() && s_[p_] == ',') {
          ++p_;
          continue;
        }
        if (p_ < s_.size() && s_[p_] == '}') {
          ++p_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++p_;
      v.type = Json::Type::kArr;
      ws();
      if (p_ < s_.size() && s_[p_] == ']') {
        ++p_;
        return true;
      }
      for (;;) {
        Json child;
        if (!value(child, depth + 1)) return false;
        v.arr.push_back(std::move(child));
        ws();
        if (p_ < s_.size() && s_[p_] == ',') {
          ++p_;
          continue;
        }
        if (p_ < s_.size() && s_[p_] == ']') {
          ++p_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      v.type = Json::Type::kStr;
      return string(v.str);
    }
    if (lit("true")) {
      v.type = Json::Type::kBool;
      v.b = true;
      return true;
    }
    if (lit("false")) {
      v.type = Json::Type::kBool;
      return true;
    }
    if (lit("null")) return true;
    v.type = Json::Type::kNum;
    return number(v.num);
  }

  std::string_view s_;
  usize p_ = 0;
};

}  // namespace

std::optional<Json> parseJson(std::string_view text) {
  return JsonParser(text).document();
}

// ---------------------------------------------------------------------------
// Scrapes
// ---------------------------------------------------------------------------

using dharma::obs::HistogramSnapshot;

Scrape Scrape::fromRegistry(const dharma::obs::MetricsRegistry& reg) {
  Scrape s;
  auto snap = reg.snapshot();
  for (const auto& c : snap.counters) s.scalars[c.id] = static_cast<double>(c.value);
  for (const auto& g : snap.gauges) s.scalars[g.id] = g.value;
  for (const auto& h : snap.hists) s.hists[h.id] = h.hist;
  return s;
}

namespace {

/// Splits `name{labels} value` into (name, labels-without-braces, value).
bool splitSample(std::string_view line, std::string_view& name,
                 std::string_view& labels, double& value) {
  usize brace = line.find('{');
  usize space;
  if (brace != std::string_view::npos) {
    usize close = line.rfind('}');
    if (close == std::string_view::npos || close < brace) return false;
    name = line.substr(0, brace);
    labels = line.substr(brace + 1, close - brace - 1);
    space = close + 1;
  } else {
    space = line.find(' ');
    if (space == std::string_view::npos) return false;
    name = line.substr(0, space);
    labels = {};
  }
  std::string num(line.substr(space));
  char* end = nullptr;
  value = std::strtod(num.c_str(), &end);
  return end != num.c_str();
}

std::string seriesId(std::string_view name, std::string_view labels) {
  std::string id(name);
  if (!labels.empty()) {
    id += '{';
    id += labels;
    id += '}';
  }
  return id;
}

/// Removes the `le="..."` pair from a bucket's label list.
std::string_view stripLe(std::string_view labels, std::string& leOut,
                         std::string& kept) {
  usize at = labels.find("le=\"");
  if (at == std::string_view::npos) return labels;
  usize end = labels.find('"', at + 4);
  leOut = std::string(labels.substr(at + 4, end - at - 4));
  kept = std::string(labels.substr(0, at));
  if (!kept.empty() && kept.back() == ',') kept.pop_back();
  return kept;
}

}  // namespace

Scrape Scrape::fromPrometheus(std::string_view text) {
  Scrape s;
  std::map<std::string, bool> isHist;
  // Cumulative bucket counts per series, in exposition (ascending le) order.
  std::map<std::string, std::vector<double>> cumulative;
  usize pos = 0;
  while (pos < text.size()) {
    usize nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) {
      std::string_view rest = line.substr(7);
      usize sp = rest.find(' ');
      if (sp != std::string_view::npos && rest.substr(sp + 1) == "histogram") {
        isHist[std::string(rest.substr(0, sp))] = true;
      }
      continue;
    }
    if (line[0] == '#') continue;
    std::string_view name, labels;
    double value = 0;
    if (!splitSample(line, name, labels, value)) continue;
    auto histBase = [&](std::string_view suffix) -> std::optional<std::string> {
      if (name.size() <= suffix.size() ||
          name.substr(name.size() - suffix.size()) != suffix) {
        return std::nullopt;
      }
      std::string base(name.substr(0, name.size() - suffix.size()));
      if (!isHist.count(base)) return std::nullopt;
      return base;
    };
    if (auto base = histBase("_bucket")) {
      std::string le, scratch;
      std::string_view rest = stripLe(labels, le, scratch);
      cumulative[seriesId(*base, rest)].push_back(value);
    } else if (auto base2 = histBase("_sum")) {
      s.hists[seriesId(*base2, labels)].sum = static_cast<u64>(value);
    } else if (histBase("_count")) {
      // Recomputed from the buckets.
    } else {
      s.scalars[seriesId(name, labels)] = value;
    }
  }
  for (auto& [id, cum] : cumulative) {
    HistogramSnapshot& h = s.hists[id];
    double prev = 0;
    for (usize b = 0; b < cum.size() && b < HistogramSnapshot::kBucketCount; ++b) {
      h.buckets[b] = static_cast<u64>(cum[b] - prev);
      prev = cum[b];
    }
    // The exposition carries no maximum; the highest bucket bound stands in.
    for (usize b = HistogramSnapshot::kBucketCount; b-- > 0;) {
      if (h.buckets[b] != 0) {
        h.maxValue = b + 1 >= HistogramSnapshot::kBucketCount
                         ? HistogramSnapshot::bucketUpperBound(b - 1)
                         : HistogramSnapshot::bucketUpperBound(b);
        break;
      }
    }
  }
  return s;
}

Scrape Scrape::delta(const Scrape& after, const Scrape& before) {
  Scrape d;
  for (const auto& [id, v] : after.scalars) {
    auto it = before.scalars.find(id);
    d.scalars[id] = v - (it == before.scalars.end() ? 0.0 : it->second);
  }
  for (const auto& [id, h] : after.hists) {
    HistogramSnapshot out = h;
    auto it = before.hists.find(id);
    if (it != before.hists.end()) {
      for (usize b = 0; b < HistogramSnapshot::kBucketCount; ++b) {
        out.buckets[b] -= std::min(out.buckets[b], it->second.buckets[b]);
      }
      out.sum -= std::min(out.sum, it->second.sum);
    }
    out.maxValue = 0;
    for (usize b = HistogramSnapshot::kBucketCount; b-- > 0;) {
      if (out.buckets[b] != 0) {
        out.maxValue = std::min<u64>(h.maxValue, HistogramSnapshot::bucketUpperBound(b));
        break;
      }
    }
    d.hists[id] = out;
  }
  return d;
}

double Scrape::scalar(const std::string& id) const {
  auto it = scalars.find(id);
  return it == scalars.end() ? 0.0 : it->second;
}

HistogramSnapshot Scrape::hist(std::string_view prefix) const {
  HistogramSnapshot out;
  for (const auto& h : histSeries(prefix)) out.merge(h);
  return out;
}

std::vector<HistogramSnapshot> Scrape::histSeries(std::string_view prefix) const {
  std::vector<HistogramSnapshot> out;
  for (const auto& [id, h] : hists) {
    if (std::string_view(id).substr(0, prefix.size()) == prefix) out.push_back(h);
  }
  return out;
}

double histMean(const HistogramSnapshot& h) {
  return ratio(static_cast<double>(h.sum), static_cast<double>(h.count()));
}

// ---------------------------------------------------------------------------
// /proc
// ---------------------------------------------------------------------------

double cpuSeconds(pid_t pid) {
  // The kernel's per-process CPU clock: ns resolution, where /proc/<pid>/stat
  // counts 10 ms ticks.
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double procPeakRssMb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace bench
