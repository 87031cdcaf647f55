#include "perfbench/trace.h"

#include <cstdio>

namespace perfbench {

int32_t Trace::Begin(const char* name, int32_t parent, uint64_t request) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, NowNs(), 0, parent, request});
  return static_cast<int32_t>(spans_.size() - 1);
}

void Trace::End(int32_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

void Trace::Count(const std::string& name, double value) {
  if (enabled_) counters_[name] = value;
}

void Trace::Merge(const Trace& other) {
  const int32_t offset = static_cast<int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
  for (const auto& [name, value] : other.counters_) counters_[name] = value;
}

std::vector<double> Trace::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.end_ns != 0 && name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

bool Trace::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Rows keep the file near 50 bytes a span, which matters at tens of
  // thousands of requests a second.
  std::map<std::string, size_t> name_ids;
  for (const Span& s : spans_) name_ids.emplace(s.name, name_ids.size());
  std::vector<const std::string*> names(name_ids.size());
  for (const auto& [name, id] : name_ids) names[id] = &name;
  std::fprintf(f, "{\"names\": [");
  for (size_t i = 0; i < names.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? ", " : "", names[i]->c_str());
  }
  std::fprintf(f, "],\n\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "[%zu,%lld,%lld,%d,%llu]%s\n", name_ids.at(s.name),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"counters\": {");
  bool first = true;
  for (const auto& [name, value] : counters_) {
    std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
