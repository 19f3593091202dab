// In-memory span recorder for the benchmark's traced pass. One span is
// recorded around each public call the benchmark makes into a simulator
// layer (name "layer.step", e.g. "core.sim"); spans nest on the calling
// thread, carry the span that caused them and the benchmark call they
// belong to, and are written once, at the end, as a Chrome trace-event
// document (opens in Perfetto / chrome://tracing, like issr_run's
// --profile-host output).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< "layer.step"; static storage
  std::string label;      ///< call or operand the span worked on
  double start_us = 0.0;  ///< since the tracer's epoch
  double end_us = 0.0;
  int parent = -1;         ///< index of the enclosing span, -1 at the root
  std::uint64_t call = 0;  ///< benchmark call id; 0 = set-up
  /// Simulated cycles the span covered (core-cycles for cluster and
  /// system runs); 0 when the span does not simulate.
  std::uint64_t cycles = 0;

  double ms() const { return (end_us - start_us) / 1e3; }
};

/// The layer a span belongs to: its name up to the first '.'.
std::string layer_of(const Span& s);

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  /// Open a span under the innermost open one; returns its index.
  int begin(const char* name, std::string label = {});
  void end(int id);
  void set_cycles(int id, std::uint64_t cycles) { spans_[id].cycles = cycles; }
  /// Tag spans opened from now on with benchmark call `id`.
  void set_call(std::uint64_t id) { call_ = id; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus its direct children) summed per layer over
  /// spans [from, size()), in milliseconds.
  std::map<std::string, double> self_ms(std::size_t from = 0) const;

  /// Write every span as a complete ("X") trace event; `meta` is a JSON
  /// object stored as the document's "metadata". False on I/O failure.
  bool write_chrome(const std::string& path, const std::string& meta) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::uint64_t call_ = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced pass).
class Scope {
 public:
  Scope(Tracer* t, const char* name, std::string label = {})
      : t_(t), id_(t ? t->begin(name, std::move(label)) : -1) {}
  ~Scope() {
    if (t_) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_cycles(std::uint64_t c) {
    if (t_) t_->set_cycles(id_, c);
  }

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
