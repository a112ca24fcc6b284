#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <utility>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_recording{false};
std::atomic<std::uint32_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};
std::mutex g_mutex;
std::vector<Span> g_spans;  // guarded by g_mutex

thread_local std::vector<std::uint32_t> t_stack;
thread_local std::uint32_t t_thread = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t this_thread() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

std::string layer_of(const std::string& name) { return name.substr(0, name.find('.')); }

bool recording() { return g_recording.load(std::memory_order_relaxed); }

}  // namespace

void start() {
  {
    const std::lock_guard lock(g_mutex);
    g_spans.clear();
  }
  g_recording.store(true);
}

std::vector<Span> stop() {
  g_recording.store(false);
  const std::lock_guard lock(g_mutex);
  return std::exchange(g_spans, {});
}

Scope::Scope(const char* name, std::uint32_t parent) : name_(name) {
  if (!recording()) return;
  id_ = g_next_id.fetch_add(1);
  parent_ = parent != 0 ? parent : (t_stack.empty() ? 0 : t_stack.back());
  t_stack.push_back(id_);
  start_ns_ = now_ns();
}

Scope::~Scope() {
  if (id_ == 0) return;
  const auto end = now_ns();
  t_stack.pop_back();
  Span span{id_, parent_, this_thread(), name_, start_ns_, end};
  const std::lock_guard lock(g_mutex);
  g_spans.push_back(std::move(span));
}

Summary summarize(const std::vector<Span>& spans) {
  std::map<std::uint32_t, const Span*> by_id;
  for (const auto& span : spans) by_id[span.id] = &span;
  std::map<std::uint32_t, double> child_s;
  for (const auto& span : spans) {
    const auto parent = by_id.find(span.parent);
    if (parent != by_id.end() && parent->second->thread == span.thread) {
      child_s[span.parent] += span.seconds();
    }
  }
  Summary summary;
  for (const auto& span : spans) {
    summary.total_s[span.name] += span.seconds();
    summary.self_s[span.name] += span.seconds() - child_s[span.id];
  }
  return summary;
}

Decomposition decompose(const std::vector<Span>& spans, std::uint32_t root) {
  Decomposition result;
  const Span* root_span = nullptr;
  for (const auto& span : spans) {
    if (span.id == root) root_span = &span;
  }
  if (root_span == nullptr) return result;
  // Same-thread spans inside the root's interval are its descendants:
  // spans of one thread nest strictly.
  std::vector<const Span*> inside;
  for (const auto& span : spans) {
    if (span.id != root && span.thread == root_span->thread &&
        span.start_ns >= root_span->start_ns && span.end_ns <= root_span->end_ns) {
      inside.push_back(&span);
    }
  }
  std::map<std::uint32_t, double> child_s;
  for (const auto* span : inside) child_s[span->parent] += span->seconds();
  result.wall_s = root_span->seconds();
  result.unattributed_s = result.wall_s - child_s[root];
  for (const auto* span : inside) {
    result.layer_self_s[layer_of(span->name)] += span->seconds() - child_s[span->id];
  }
  return result;
}

void write_jsonl(const std::vector<Span>& spans, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& span : spans) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent
        << ",\"thread\":" << span.thread << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}\n";
  }
}

}  // namespace perfbench::trace
