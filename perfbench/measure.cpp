#include "measure.hpp"

#include <cstdio>

namespace perfbench {

__attribute__((noinline)) Tracer::ThreadBuf& Tracer::local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lk(mu_);
    bufs_.push_back(std::make_unique<ThreadBuf>());
    buf = bufs_.back().get();
    // The thread's index in the top 16 bits keeps ids unique unshared.
    buf->next_id = (static_cast<std::uint64_t>(bufs_.size()) << 48) | 1;
  }
  return *buf;
}

__attribute__((noinline)) std::uint64_t Tracer::new_id() {
  return local().next_id++;
}

__attribute__((noinline)) void Tracer::record(std::uint16_t name,
                                              std::uint64_t id,
                                              std::uint64_t parent,
                                              std::int64_t start,
                                              std::int64_t end,
                                              std::int64_t child_ns) {
  ThreadBuf& b = local();
  SpanTotals& t = b.totals[name];
  ++t.count;
  t.dur_ns += static_cast<double>(end - start);
  t.self_ns += static_cast<double>(end - start - child_ns);
  if (stored_.fetch_add(1, std::memory_order_relaxed) < kMaxSpans)
    b.spans.push_back(SpanRecord{id, parent, start, end, name});
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& b : bufs_)
    for (const SpanRecord& s : b->spans)
      std::fprintf(f, "%llu,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   span_name(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
