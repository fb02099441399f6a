#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {
namespace {

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace

bool write_span_dump(const std::string& dir, const SpanLog& log) {
  File driver(std::fopen((dir + "/driver_spans.tsv").c_str(), "w"));
  File obs(std::fopen((dir + "/obs_spans.tsv").c_str(), "w"));
  if (!driver || !obs) {
    return false;
  }
  const std::vector<Span>& spans = log.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(driver.get(), "%lld\t%zu\t%d\t%s\t%lld\t%lld\n",
                 static_cast<long long>(s.frame), i, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const roadfusion::obs::TraceEvent& e : log.library_spans()) {
    std::fprintf(obs.get(), "%u\t%s\t%lld\t%lld\n", e.tid, e.name,
                 static_cast<long long>(e.start_us),
                 static_cast<long long>(e.duration_us));
  }
  return std::ferror(driver.get()) == 0 && std::ferror(obs.get()) == 0;
}

}  // namespace perfbench
