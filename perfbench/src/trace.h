// In-memory span recorder for the traced run.
//
// A span is (id, parent, thread, name, start, end). Spans are kept in
// memory while the run executes and written out once at the end. The
// benchmark opens spans around its own calls into each layer's public
// functions; the program itself carries no tracing.
//
// A span's self time is its duration minus the durations of its
// children on the same thread (children on the same thread nest, so
// they never overlap). Span names are "<layer>.<what>"; a layer's self
// time is the sum of its spans' self times.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = none
  std::uint32_t thread = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// Starts recording; spans opened while recording is off cost one
/// branch and record nothing.
void start();
/// Stops recording and returns every span recorded since `start`.
[[nodiscard]] std::vector<Span> stop();

/// RAII span. The parent is the innermost open span of the calling
/// thread, or `parent` when given (spans opened on pool threads name
/// the span that waits for them).
class Scope {
 public:
  explicit Scope(const char* name, std::uint32_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  const char* name_;
  std::uint32_t id_ = 0;
  std::uint32_t parent_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Totals derived from a span set.
struct Summary {
  std::map<std::string, double> total_s;  ///< duration by span name
  std::map<std::string, double> self_s;   ///< self time by span name
};
[[nodiscard]] Summary summarize(const std::vector<Span>& spans);

/// Splits the wall time of `root` (a span) into layer self times over
/// the spans of its thread inside it; `unattributed_s` is the root's own
/// self time, so the layers plus it equal `wall_s` exactly.
struct Decomposition {
  double wall_s = 0;
  double unattributed_s = 0;
  std::map<std::string, double> layer_self_s;
};
[[nodiscard]] Decomposition decompose(const std::vector<Span>& spans, std::uint32_t root);

/// Writes spans as JSON lines.
void write_jsonl(const std::vector<Span>& spans, const std::filesystem::path& path);

}  // namespace perfbench::trace
