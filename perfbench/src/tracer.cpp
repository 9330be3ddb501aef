#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/error.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

void Tracer::open_root(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  root_ = id;
}

void Tracer::close_root() {
  const std::lock_guard<std::mutex> lock(mutex_);
  root_ = 0;
}

std::uint64_t Tracer::root() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return root_;
}

void Tracer::open_solve(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_solve_ = id;
  solve_problems_.clear();
}

void Tracer::close_solve() {
  const std::lock_guard<std::mutex> lock(mutex_);
  open_solve_ = 0;
}

std::uint64_t Tracer::open_solve_id() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return open_solve_;
}

bool Tracer::seen_in_solve(const void* problem) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (std::find(solve_problems_.begin(), solve_problems_.end(), problem) !=
      solve_problems_.end()) {
    return true;
  }
  solve_problems_.push_back(problem);
  return false;
}

std::uint64_t Tracer::request() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return request_;
}

void Tracer::next_request() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++request_;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.clear();
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  TSAJS_REQUIRE(out.good(), "cannot write trace file " + path);
  out << "id,parent,request,name,start_ns,end_ns,count,flag\n";
  for (const Span& s : spans()) {
    out << s.id << ',' << s.parent << ',' << s.request << ',' << s.name << ','
        << s.start_ns << ',' << s.end_ns << ',' << s.count << ','
        << (s.flag ? 1 : 0) << '\n';
  }
  TSAJS_REQUIRE(out.good(), "cannot write trace file " + path);
}

double self_ms(const Span& span, const std::vector<Span>& spans) {
  std::vector<std::pair<std::int64_t, std::int64_t>> children;
  for (const Span& child : spans) {
    if (child.parent != span.id) continue;
    children.emplace_back(std::max(child.start_ns, span.start_ns),
                          std::min(child.end_ns, span.end_ns));
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [start, end] : children) {
    const std::int64_t from = std::max(start, reach);
    if (end > from) covered += end - from;
    reach = std::max(reach, end);
  }
  return static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-6;
}

TracedScheduler::TracedScheduler(std::unique_ptr<tsajs::algo::Scheduler> inner,
                                 Tracer& tracer, Boundary boundary)
    : inner_(std::move(inner)), tracer_(tracer), boundary_(boundary) {}

tsajs::algo::ScheduleResult TracedScheduler::solve(
    const tsajs::algo::SolveRequest& request) const {
  Span span;
  span.id = tracer_.next_id();
  span.request = tracer_.request();
  if (boundary_ == Boundary::kSolve) {
    if (tracer_.probe) tracer_.probe(*request.problem);
    span.name = "solve";
    span.parent = tracer_.root();
    span.flag = request.hint != nullptr;
    tracer_.open_solve(span.id);
  } else {
    span.name = "shard";
    span.parent = tracer_.open_solve_id();
    span.flag = tracer_.seen_in_solve(request.problem);
  }
  span.start_ns = now_ns();
  tsajs::algo::ScheduleResult result = inner_->solve(request);
  span.end_ns = now_ns();
  span.count = result.evaluations;
  if (boundary_ == Boundary::kSolve) tracer_.close_solve();
  tracer_.record(span);
  return result;
}

MeasuringSink::MeasuringSink(tsajs::sim::StreamSink& inner, Tracer* tracer)
    : inner_(inner), tracer_(tracer) {}

void MeasuringSink::traced(const char* name, std::int64_t start_ns) {
  Span span;
  span.name = name;
  span.id = tracer_->next_id();
  span.parent = tracer_->root();
  span.request = tracer_->request();
  span.start_ns = start_ns;
  span.end_ns = now_ns();
  tracer_->record(span);
}

void MeasuringSink::on_event(const tsajs::sim::StreamEvent& event) {
  using tsajs::sim::StreamEventType;
  const std::int64_t start = now_ns();
  if (event.type == StreamEventType::kArrival ||
      event.type == StreamEventType::kDepart ||
      event.type == StreamEventType::kFault) {
    trigger_ns_ = start;
  }
  inner_.on_event(event);
  if (tracer_ != nullptr) traced("sink.event", start);
}

void MeasuringSink::on_decision(const tsajs::sim::DecisionRecord& record) {
  const std::int64_t start = now_ns();
  TSAJS_REQUIRE(trigger_ns_ >= 0, "decision without a triggering event");
  latency_ms_.push_back(static_cast<double>(start - trigger_ns_) * 1e-6);
  solve_ms_.push_back(record.solve_seconds * 1e3);
  decision_end_ns_.push_back(start);
  trigger_ns_ = -1;
  inner_.on_decision(record);
  if (tracer_ != nullptr) {
    traced("sink.decision", start);
    tracer_->next_request();
  }
}

void MeasuringSink::on_checkpoint(
    const tsajs::sim::StreamCheckpoint& checkpoint) {
  const std::int64_t start = now_ns();
  inner_.on_checkpoint(checkpoint);
  if (tracer_ != nullptr) traced("sink.checkpoint", start);
}

}  // namespace perfbench
