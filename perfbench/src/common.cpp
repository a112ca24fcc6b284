#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "pcap/pcap.h"
#include "report/json.h"
#include "simgen/ecosystem.h"
#include "simgen/generator.h"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

const synscan::telescope::Telescope& bench_telescope() {
  static const auto telescope = synscan::telescope::Telescope::paper_default();
  return telescope;
}

const synscan::enrich::InternetRegistry& bench_registry() {
  return synscan::enrich::InternetRegistry::synthetic_default();
}

synscan::core::IngestOptions pinned_ingest() {
  synscan::core::IngestOptions options;
  options.scan_chunks = kScanChunks;
  return options;
}

void generate_year(int year, double scale, std::uint64_t seed,
                   const std::function<void(const synscan::net::RawFrame&)>& sink) {
  auto config = synscan::simgen::year_config(year, scale);
  config.seed = seed * std::uint64_t{1000003} + static_cast<std::uint64_t>(year);
  synscan::simgen::TrafficGenerator generator(std::move(config), bench_telescope(),
                                              bench_registry());
  (void)generator.run(sink);
}

void generate_capture(int year, double scale, std::uint64_t seed, const fs::path& out) {
  auto writer = synscan::pcap::Writer::create(out);
  generate_year(year, scale, seed,
                [&](const synscan::net::RawFrame& frame) { writer.write(frame); });
  writer.flush();
}

std::size_t reader_connections() {
  const auto hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

std::string report_bytes(const synscan::core::AnalyzedCapture& analysis) {
  std::string payload;
  synscan::report::append_counters_json(payload, analysis.result);
  payload.push_back('\n');
  synscan::report::append_campaigns_jsonl(payload, analysis.result.campaigns);
  return payload;
}

namespace {

/// Splits a flat `{"k":v,...}` object into key -> raw value text.
std::map<std::string, std::string> flat_fields(const std::string& line) {
  std::map<std::string, std::string> fields;
  std::string body = line;
  if (!body.empty() && body.front() == '{') body.erase(0, 1);
  if (!body.empty() && body.back() == '}') body.pop_back();
  std::stringstream stream(body);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) continue;
    fields[item.substr(0, colon)] = item.substr(colon + 1);
  }
  return fields;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

}  // namespace

ReportDiff diff_reports(const std::string& got, const std::string& want) {
  ReportDiff diff;
  const auto got_lines = lines_of(got);
  const auto want_lines = lines_of(want);
  const auto got_counters = flat_fields(got_lines.empty() ? "" : got_lines.front());
  const auto want_counters = flat_fields(want_lines.empty() ? "" : want_lines.front());
  for (const auto& [key, value] : want_counters) {
    const auto it = got_counters.find(key);
    const std::string other = it == got_counters.end() ? "(missing)" : it->second;
    if (other != value) {
      ++diff.counter_fields;
      diff.fields.push_back(key + ": " + other + " vs " + value);
    }
  }
  for (const auto& [key, value] : got_counters) {
    if (!want_counters.contains(key)) {
      ++diff.counter_fields;
      diff.fields.push_back(key + ": " + value + " vs (missing)");
    }
  }
  const auto lines = std::max(got_lines.size(), want_lines.size());
  for (std::size_t i = 1; i < lines; ++i) {
    if (i >= got_lines.size() || i >= want_lines.size() || got_lines[i] != want_lines[i]) {
      ++diff.campaign_lines;
    }
  }
  return diff;
}

std::uint64_t file_bytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

void settle(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const auto total = after.total - before.total;
  if (total == 0) return 0;
  return static_cast<double>(after.steal - before.steal) / static_cast<double>(total);
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  if (!clear.is_open()) return false;
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  values_[name] = {value, unit};
}

namespace {

std::string number_text(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::string Metrics::to_json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out += ", ";
    first = false;
    out += json_string(name) + ": {\"value\": " + number_text(entry.first) +
           ", \"unit\": " + json_string(entry.second) + "}";
  }
  return out + "}";
}

void Detail::number(const std::string& key, double value) {
  entries_.emplace_back(key, number_text(value));
}

void Detail::text(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, json_string(value));
}

void Detail::raw(const std::string& key, const std::string& json) {
  entries_.emplace_back(key, json);
}

std::string Detail::to_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(entries_[i].first) + ": " + entries_[i].second;
  }
  return out + "}";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += synscan::report::json_escape(text);
  out += '"';
  return out;
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Best of a few 64 MiB copies, counting bytes read plus bytes written.
double memcpy_gbps() {
  constexpr std::size_t kBytes = 64u << 20;
  std::vector<char> from(kBytes, 1);
  std::vector<char> to(kBytes, 0);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    std::memcpy(to.data(), from.data(), kBytes);
    const double elapsed = seconds_since(start);
    from[static_cast<std::size_t>(rep)] = to[kBytes - 1 - static_cast<std::size_t>(rep)];
    if (elapsed > 0) best = std::max(best, 2.0 * kBytes / elapsed / 1e9);
  }
  return best;
}

}  // namespace

std::string host_json() {
  Detail host;
  host.number("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  host.text("cpu_model", cpu_model());
  host.number("memcpy_gbps", memcpy_gbps());
#if defined(__clang__)
  host.text("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  host.text("compiler", std::string("gcc ") + __VERSION__);
#else
  host.text("compiler", "unknown");
#endif
  host.text("build_type", PERFBENCH_BUILD_TYPE);
  return host.to_json();
}

}  // namespace perfbench
