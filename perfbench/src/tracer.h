// Outside-in tracer for the repository benchmark.
//
// Spans are recorded by the benchmark itself, at three decorator
// boundaries it hands to the library through public constructors and
// parameters, plus around its own calls into each layer:
//
//   * TracedScheduler(kSolve) — the Scheduler passed to run_and_validate
//     or StreamDriver::run: one "solve" span per top-level decision;
//   * TracedScheduler(kShard) — the inner scheduler handed to
//     algo::ShardedScheduler's constructor: one "shard" span per shard
//     solve (phase 1) or budget-reclaim re-solve, possibly concurrent;
//   * MeasuringSink           — the StreamSink wrapped around
//     sim::EvidenceWriter: "sink.event" / "sink.decision" /
//     "sink.checkpoint" spans around each forwarded callback.
//
// Each span carries its name, start, end, parent span and request id
// (the decision it contributes to), plus a work count where the boundary
// reports one (evaluations). Spans stay in memory; write_csv() dumps them
// when the run ends and self_ms() derives a span's self time (its
// duration minus the union of its children's intervals).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "algo/scheduler.h"
#include "sim/stream.h"

namespace perfbench {

/// Nanoseconds on the steady clock since the benchmark process started.
[[nodiscard]] std::int64_t now_ns() noexcept;

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;  ///< work reported at the boundary, if any
  bool flag = false;        ///< solve: warm hint; shard: reclaim re-solve

  [[nodiscard]] double ms() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class Tracer {
 public:
  /// A fresh span id (ids start at 1; 0 means "no span").
  [[nodiscard]] std::uint64_t next_id();
  void record(const Span& span);

  /// The open benchmark-level span (a run_and_validate call or a whole
  /// stream run): parent of the solve and sink spans recorded meanwhile.
  void open_root(std::uint64_t id);
  void close_root();
  [[nodiscard]] std::uint64_t root() const;
  /// The open top-level solve: parent of the shard spans recorded
  /// meanwhile.
  void open_solve(std::uint64_t id);
  void close_solve();
  [[nodiscard]] std::uint64_t open_solve_id() const;
  /// True the second time `problem` is solved inside the open solve — the
  /// sharded layer's budget-reclaim re-solve of a shard it already solved.
  [[nodiscard]] bool seen_in_solve(const void* problem);

  /// The decision the next spans contribute to; advanced by the workload
  /// after each completed decision.
  [[nodiscard]] std::uint64_t request() const;
  void next_request();

  /// Every recorded span, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Drops every span recorded so far (the untimed warm-up's).
  void clear();
  void write_csv(const std::string& path) const;

  /// Called with each top-level problem before its solve span opens (the
  /// benchmark's geometry probe); may be empty.
  std::function<void(const tsajs::jtora::CompiledProblem&)> probe;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<const void*> solve_problems_;
  std::uint64_t next_id_ = 1;
  std::uint64_t root_ = 0;
  std::uint64_t open_solve_ = 0;
  std::uint64_t request_ = 0;
};

/// Self time of `span` in ms: its duration minus the part of its interval
/// covered by the union of its children in `spans`.
[[nodiscard]] double self_ms(const Span& span, const std::vector<Span>& spans);

/// Scheduler decorator recording one span per solve() call.
class TracedScheduler final : public tsajs::algo::Scheduler {
 public:
  enum class Boundary { kSolve, kShard };

  TracedScheduler(std::unique_ptr<tsajs::algo::Scheduler> inner,
                  Tracer& tracer, Boundary boundary);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::uint32_t capabilities() const noexcept override {
    return inner_->capabilities();
  }
  [[nodiscard]] tsajs::algo::ScheduleResult solve(
      const tsajs::algo::SolveRequest& request) const override;

 private:
  std::unique_ptr<tsajs::algo::Scheduler> inner_;
  Tracer& tracer_;
  Boundary boundary_;
};

/// StreamSink decorator: forwards every callback to `inner` and measures
/// decision latency — from the sink callback of the event that triggered a
/// decision (arrival, departure or fault tick) to that decision's
/// on_decision callback. With a tracer it also records a span around each
/// forwarded callback and advances the tracer's request id per decision.
class MeasuringSink final : public tsajs::sim::StreamSink {
 public:
  MeasuringSink(tsajs::sim::StreamSink& inner, Tracer* tracer);

  void on_event(const tsajs::sim::StreamEvent& event) override;
  void on_decision(const tsajs::sim::DecisionRecord& record) override;
  void on_checkpoint(const tsajs::sim::StreamCheckpoint& checkpoint) override;

  /// Per-decision latency [ms] and the solver's own time [ms]
  /// (DecisionRecord::solve_seconds), in decision order.
  [[nodiscard]] const std::vector<double>& latency_ms() const noexcept {
    return latency_ms_;
  }
  [[nodiscard]] const std::vector<double>& solve_ms() const noexcept {
    return solve_ms_;
  }
  /// now_ns() at each on_decision callback.
  [[nodiscard]] const std::vector<std::int64_t>& decision_end_ns()
      const noexcept {
    return decision_end_ns_;
  }

 private:
  void traced(const char* name, std::int64_t start_ns);

  tsajs::sim::StreamSink& inner_;
  Tracer* tracer_;
  std::int64_t trigger_ns_ = -1;
  std::vector<double> latency_ms_;
  std::vector<double> solve_ms_;
  std::vector<std::int64_t> decision_end_ns_;
};

}  // namespace perfbench
