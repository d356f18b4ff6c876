#pragma once

/// \file trace.hpp
/// Spans recorded by the benchmark around its calls into the library's
/// layers. The library is measured from outside: no span lives in
/// src/. Spans stay in memory and are written once, at exit, as a
/// Chrome trace; reduce() turns them into the per-layer table.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on the monotonic clock (one epoch per process).
double now_s();

class tracer {
 public:
  explicit tracer(bool on) : on_(on) {}

  [[nodiscard]] bool on() const { return on_; }

  /// Open / close a span. Spans nest; one thread records at a time
  /// (the benchmark's driving thread, or rank 0 while it runs).
  void begin(const char* name);
  void end();

  struct span {
    const char* name = nullptr;  ///< "<layer>.<call>", static storage
    double t0 = 0;
    double t1 = 0;
    double child_s = 0;  ///< time covered by directly nested spans
  };
  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }

  /// Chrome trace ("X" complete events, microseconds). False on I/O
  /// failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  /// A count or sample taken at a layer boundary (kept only when on).
  void value(const std::string& name, double v) {
    if (on_) values_[name].push_back(v);
  }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& values()
      const {
    return values_;
  }

 private:
  bool on_;
  std::vector<span> spans_;
  std::vector<std::size_t> open_;
  std::map<std::string, std::vector<double>> values_;
};

/// RAII span; a no-op when the tracer is off.
class scoped_span {
 public:
  scoped_span(tracer& t, const char* name) : t_(t.on() ? &t : nullptr) {
    if (t_ != nullptr) t_->begin(name);
  }
  ~scoped_span() {
    if (t_ != nullptr) t_->end();
  }
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;

 private:
  tracer* t_;
};

}  // namespace perfbench
