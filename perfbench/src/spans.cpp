#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace vsg::perfbench {

namespace {

void add_cost(CallCosts& c, sim::Time at, sim::Time window, std::int64_t self) {
  c.all.push_back(self);
  if (at < window / 10) c.first_tenth.push_back(self);
  else if (at >= window - window / 10 && at < window) c.last_tenth.push_back(self);
}

}  // namespace

void fold(const std::vector<Span>& spans, sim::Time window, LayerTotals& into) {
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - child_ns[i];
    const auto k = static_cast<std::size_t>(s.name);
    if (self < 0 || (s.name == SpanName::kStep) != (s.parent < 0)) ++into.malformed;
    ++into.calls[k];
    into.self_ns[k] += self;
    if (s.name == SpanName::kStep) into.step_total_ns += dur;
    if (s.name == SpanName::kValue) add_cost(into.value, s.at, window, self);
    if (s.name == SpanName::kExchange) add_cost(into.exchange, s.at, window, self);
  }
}

bool write_tsv(const std::vector<Span>& spans, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) return false;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fprintf(f.get(), "name\tstart_ns\tend_ns\tparent\tsim_us\n");
  for (const Span& s : spans)
    std::fprintf(f.get(), "%s\t%lld\t%lld\t%d\t%lld\n", span_label(s.name),
                 static_cast<long long>(s.start_ns - t0), static_cast<long long>(s.end_ns - t0),
                 s.parent, static_cast<long long>(s.at));
  return std::ferror(f.get()) == 0;
}

}  // namespace vsg::perfbench
