#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {

double us_since(Clock::time_point epoch) {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string layer_of(const Span& s) {
  const std::string name = s.name;
  return name.substr(0, name.find('.'));
}

int Tracer::begin(const char* name, std::string label) {
  Span s;
  s.name = name;
  s.label = std::move(label);
  s.parent = open_.empty() ? -1 : open_.back();
  s.call = call_;
  s.start_us = us_since(epoch_);
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id) {
  spans_[id].end_us = us_since(epoch_);
  open_.pop_back();
}

std::map<std::string, double> Tracer::self_ms(std::size_t from) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const int p = spans_[i].parent;
    if (p >= 0) child_ms[p] += spans_[i].ms();
  }
  std::map<std::string, double> out;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    out[layer_of(spans_[i])] += spans_[i].ms() - child_ms[i];
  }
  return out;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& meta) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"metadata\": %s,\n\"traceEvents\": [\n", meta.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"span\": %zu, \"parent\": %d, \"call\": %llu, "
                 "\"label\": \"%s\", \"cycles\": %llu}}%s\n",
                 s.name, layer_of(s).c_str(), s.start_us,
                 s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.call),
                 json_escape(s.label).c_str(),
                 static_cast<unsigned long long>(s.cycles),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
