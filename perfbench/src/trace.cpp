#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>

namespace perfbench {

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void tracer::begin(const char* name) {
  span s;
  s.name = name;
  open_.push_back(spans_.size());
  spans_.push_back(s);
  spans_.back().t0 = now_s();
}

void tracer::end() {
  const double t1 = now_s();
  span& s = spans_[open_.back()];
  open_.pop_back();
  s.t1 = t1;
  if (!open_.empty()) spans_[open_.back()].child_s += s.t1 - s.t0;
}

bool tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const int layer_len =
        dot != nullptr ? static_cast<int>(dot - s.name)
                       : static_cast<int>(std::strlen(s.name));
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f}%s\n",
                 s.name, layer_len, s.name, s.t0 * 1e6, (s.t1 - s.t0) * 1e6,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
