#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "algo/registry.h"
#include "algo/sharded.h"
#include "common/error.h"
#include "geo/partition.h"
#include "jtora/compiled_problem.h"
#include "jtora/sharded_problem.h"
#include "mec/scenario_builder.h"
#include "sim/evidence.h"
#include "sim/stream.h"
#include "tracer.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace tsajs;

// stream_seed tags of the benchmark's own input streams.
constexpr std::uint64_t kDropTag = 0xD209ULL;
constexpr std::uint64_t kSolveTag = 0x5017ULL;
constexpr std::uint64_t kWarmupTag = 0xA4A1ULL;
constexpr std::uint64_t kStreamTag = 0x57E4ULL;

constexpr std::size_t kChainLength = 30;
constexpr std::size_t kSubchannels = 3;
/// An untraced run sets up at least this many times: once before each
/// timed pass after the first, so that the repetitions spread over the
/// run, and the rest up front (setup_s is their median). A traced run sets
/// up once, as it does not report setup_s.
constexpr std::size_t kMinSetupReps = 5;

[[nodiscard]] std::size_t upfront_setups(bool trace, std::size_t passes) {
  return trace || passes >= kMinSetupReps ? 1 : kMinSetupReps + 1 - passes;
}

/// The geometry probe samples every this-many traced solves.
constexpr std::uint64_t kGeometryStride = 25;

[[nodiscard]] double ms_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-6;
}

[[nodiscard]] double seconds_since(std::int64_t start) {
  return ms_between(start, now_ns()) * 1e-3;
}

[[nodiscard]] double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

[[nodiscard]] double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Timed work is made in passes over the same inputs (solve seeds, stream
/// seed), which give the same results every pass; `Passes` holds one
/// sample per operation per pass. The host this runs on is shared: a busy
/// neighbour slows one of its virtual CPUs by up to 1.7x, for stretches of
/// a fraction of a second to tens of seconds, so a run's plain median
/// depends on how much of the run such stretches cover.
using Passes = std::vector<std::vector<double>>;

/// Each operation's best time over the passes: what the code takes when
/// no neighbour is in the way.
[[nodiscard]] std::vector<double> best_of(const Passes& passes) {
  std::vector<double> best = passes.empty() ? std::vector<double>{}
                                            : passes.front();
  for (const std::vector<double>& pass : passes) {
    for (std::size_t i = 0; i < std::min(best.size(), pass.size()); ++i) {
      best[i] = std::min(best[i], pass[i]);
    }
  }
  return best;
}

/// p50: the median of the operations' best times. Tail: in each pass, the
/// highest percentile (0.1 steps) that still has ten of the pass's samples
/// beyond it, by nearest rank; the median over passes. The tail is what a
/// caller sees at the slow end, neighbours included; busy stretches come
/// often enough to fill a pass's top few percent, so it is steadier across
/// runs than a tail of best times. A pass of fewer than twenty samples has
/// no tail, and the tail is the p50.
struct Distribution {
  double p50 = 0.0;
  double tail = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};

[[nodiscard]] Distribution distribution_of(const Passes& passes) {
  Distribution d;
  const std::vector<double> best = best_of(passes);
  d.samples = best.size();
  if (best.empty()) return d;
  d.p50 = median_of(best);
  const auto n = static_cast<double>(best.size());
  d.percentile = std::max(50.0, std::floor(1000.0 * (n - 10.0) / n) / 10.0);
  if (d.percentile == 50.0) {
    d.tail = d.p50;
    return d;
  }
  std::vector<double> tails;
  for (std::vector<double> pass : passes) {
    std::sort(pass.begin(), pass.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(d.percentile / 100.0 * static_cast<double>(pass.size())));
    tails.push_back(pass[std::clamp<std::size_t>(rank, 1, pass.size()) - 1]);
  }
  d.tail = median_of(tails);
  return d;
}

/// Operations per second from each operation's best wall interval (end
/// minus the previous operation's end).
[[nodiscard]] double rate_of(const Passes& interval_ms) {
  const std::vector<double> best = best_of(interval_ms);
  double ms = 0.0;
  for (const double x : best) ms += x;
  return ms > 0.0 ? static_cast<double>(best.size()) * 1e3 / ms : 0.0;
}

/// Pins the calling thread to the pass-th of the CPUs the process started
/// with, round robin. A single-threaded workload makes each pass on the
/// next CPU: the neighbours slowing one virtual CPU come and go
/// independently of the others', so passes on different CPUs are less
/// likely all to be slowed than passes on one.
void pin_for_pass(std::size_t pass) {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  std::vector<std::size_t> cpus;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[pass % cpus.size()], &one);
  (void)sched_setaffinity(0, sizeof(one), &one);
}

[[nodiscard]] std::string hexfloat(double x) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", x);
  return buffer;
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The scheduler under test. Untraced: exactly what the registry builds.
/// Traced: the same composition with a TracedScheduler at the Scheduler
/// boundary and, when sharded, another around the inner scheme handed to
/// ShardedScheduler's public constructor.
[[nodiscard]] std::unique_ptr<algo::Scheduler> make_solver(bool sharded,
                                                           std::size_t threads,
                                                           Tracer* tracer) {
  algo::RegistryOptions options;
  options.chain_length = kChainLength;
  options.shard_threads = threads;
  if (tracer == nullptr) {
    return algo::make_scheduler(sharded ? "sharded:tsajs" : "tsajs", options);
  }
  using Boundary = TracedScheduler::Boundary;
  std::unique_ptr<algo::Scheduler> solver =
      algo::make_scheduler("tsajs", options);
  if (sharded) {
    algo::ShardedConfig config;
    config.reach_m = options.shard_reach_m;
    config.threads = threads;
    solver = std::make_unique<algo::ShardedScheduler>(
        std::make_unique<TracedScheduler>(std::move(solver), *tracer,
                                          Boundary::kShard),
        config);
  }
  return std::make_unique<TracedScheduler>(std::move(solver), *tracer,
                                           Boundary::kSolve);
}

/// Shard count and boundary-user share of the interference partition the
/// sharded layer would build for a problem, sampled by a tracer probe.
struct Geometry {
  double shards = 0.0;
  double boundary_share = 0.0;
  std::size_t samples = 0;
  double probe_ms = 0.0;  ///< time spent probing, kept out of the overhead

  void sample(const jtora::CompiledProblem& problem) {
    const std::int64_t start = now_ns();
    const mec::Scenario& scenario = problem.scenario();
    std::vector<geo::Point> sites;
    for (std::size_t s = 0; s < scenario.num_servers(); ++s) {
      sites.push_back(scenario.server(s).position);
    }
    const double reach = geo::InterferencePartition::auto_reach(sites);
    double count = 1.0;
    double share = 0.0;
    if (reach > 0.0) {
      const geo::InterferencePartition partition(sites, reach);
      const jtora::ShardedProblem sliced(problem, partition);
      count = static_cast<double>(partition.num_shards());
      share = static_cast<double>(sliced.boundary_users().size()) /
              static_cast<double>(problem.num_users());
    }
    ++samples;
    const auto n = static_cast<double>(samples);
    shards += (count - shards) / n;
    boundary_share += (share - boundary_share) / n;
    probe_ms += ms_between(start, now_ns());
  }
};

void install_geometry_probe(Tracer& tracer, Geometry& geometry) {
  tracer.probe = [&geometry, calls = std::uint64_t{0}](
                     const jtora::CompiledProblem& problem) mutable {
    if (calls++ % kGeometryStride == 0) geometry.sample(problem);
  };
}

/// Per-layer split of traced solves. A top-level "solve" span with
/// "shard" children went through the sharded layer; its interval divides
/// exactly into pre (entry to first shard) + shard phase (first to last
/// phase-1 shard) + reclaim (to the last reclaim re-solve) + post (to the
/// return: merge, boundary fixup, final rebuild).
struct LayerSplit {
  std::size_t solves = 0;          ///< all traced top-level solves
  std::size_t sharded_solves = 0;  ///< those with shard spans
  double pre = 0.0, phase = 0.0, busy = 0.0, reclaim = 0.0, post = 0.0;
  double total = 0.0, self = 0.0, residual = 0.0, straggler = 0.0;
  double reclaim_calls = 0.0, fixup_evaluations = 0.0;
  std::vector<double> shard_ms;
  double inner_ns = 0.0, inner_evaluations = 0.0;
  std::vector<double> solve_span_ms;
  std::size_t shard_spans = 0;
  std::size_t warm = 0;
  double evaluations = 0.0;  ///< top-level evaluations
};

/// `solve_seconds_ms[i]` is run_and_validate's solve time of the i-th
/// traced solve, in call order.
[[nodiscard]] LayerSplit split_layers(
    const std::vector<Span>& spans, const std::vector<double>& solve_seconds_ms) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "shard") {
      children[s.parent].push_back(&s);
    }
  }
  LayerSplit split;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "solve") continue;
    const double span_ms = s.ms();
    split.solve_span_ms.push_back(span_ms);
    split.evaluations += static_cast<double>(s.count);
    if (s.flag) ++split.warm;
    const auto found = children.find(s.id);
    const double measured_ms = split.solves < solve_seconds_ms.size()
                                   ? solve_seconds_ms[split.solves]
                                   : span_ms;
    ++split.solves;
    if (found == children.end()) {
      split.inner_ns += span_ms * 1e6;
      split.inner_evaluations += static_cast<double>(s.count);
      continue;
    }
    ++split.sharded_solves;
    std::int64_t first_start = s.end_ns;
    std::int64_t phase1_end = s.start_ns;
    std::int64_t last_end = s.start_ns;
    double busy = 0.0, straggler = 0.0, inner_count = 0.0;
    for (const Span* c : found->second) {
      ++split.shard_spans;
      split.inner_ns += c->ms() * 1e6;
      inner_count += static_cast<double>(c->count);
      last_end = std::max(last_end, c->end_ns);
      if (c->flag) {
        split.reclaim_calls += 1.0;
        continue;
      }
      first_start = std::min(first_start, c->start_ns);
      phase1_end = std::max(phase1_end, c->end_ns);
      busy += c->ms();
      straggler = std::max(straggler, c->ms());
      split.shard_ms.push_back(c->ms());
    }
    const double pre = ms_between(s.start_ns, first_start);
    const double phase = ms_between(first_start, phase1_end);
    const double reclaim = ms_between(phase1_end, last_end);
    const double post = ms_between(last_end, s.end_ns);
    split.pre += pre;
    split.phase += phase;
    split.busy += busy;
    split.reclaim += reclaim;
    split.post += post;
    split.total += span_ms;
    split.straggler += straggler;
    split.self += self_ms(s, spans);
    split.residual += measured_ms - (pre + phase + reclaim + post);
    split.inner_evaluations += inner_count;
    split.fixup_evaluations += static_cast<double>(s.count) - inner_count;
  }
  return split;
}

/// Every per-layer metric, zero where a layer is not on the workload's
/// path; the workload fills in what it measured.
struct LayerMetrics {
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }

  void add_split(const LayerSplit& split, std::size_t threads) {
    const auto n = static_cast<double>(split.sharded_solves);
    if (split.sharded_solves > 0) {
      set("sharded.pre_ms", split.pre / n);
      set("sharded.shard_phase_ms", split.phase / n);
      set("sharded.shard_busy_ms", split.busy / n);
      set("sharded.shard_parallel_eff",
          split.phase > 0.0
              ? split.busy / (static_cast<double>(threads) * split.phase)
              : 0.0);
      set("sharded.shard_span_p50_ms", median_of(split.shard_ms));
      set("sharded.shard_span_max_ms", split.straggler / n);
      set("sharded.reclaim_calls", split.reclaim_calls / n);
      set("sharded.reclaim_ms", split.reclaim / n);
      set("sharded.post_ms", split.post / n);
      set("sharded.post_share", split.total > 0.0 ? split.post / split.total
                                                  : 0.0);
      set("sharded.fixup_evaluations", split.fixup_evaluations / n);
      set("sharded.self_ms", split.self / n);
      set("sharded.residual_ms", split.residual / n);
    }
    if (split.solves > 0) {
      set("tsajs.evaluations",
          split.inner_evaluations / static_cast<double>(split.solves));
    }
    if (split.inner_evaluations > 0.0) {
      set("tsajs.ns_per_eval", split.inner_ns / split.inner_evaluations);
    }
  }
};

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "mec.build_ms", "jtora.compile_ms", "jtora.signal_table_mib",
      "geo.shards", "geo.boundary_user_share", "sharded.pre_ms",
      "sharded.shard_phase_ms", "sharded.shard_busy_ms",
      "sharded.shard_parallel_eff", "sharded.shard_span_p50_ms",
      "sharded.shard_span_max_ms", "sharded.reclaim_calls",
      "sharded.reclaim_ms", "sharded.post_ms", "sharded.post_share",
      "sharded.fixup_evaluations", "sharded.self_ms", "sharded.residual_ms",
      "tsajs.evaluations", "tsajs.ns_per_eval", "algo.audit_ms",
      "stream.solve_p50_ms", "stream.loop_p50_ms", "stream.loop_share",
      "stream.warm_share", "stream.evals_per_decision", "stream.admitted",
      "stream.queued", "stream.promoted", "stream.rejected",
      "stream.reject_share", "stream.fault_steps", "stream.breaker_trips",
      "stream.active_mean", "stream.backlog_mean", "evidence.event_ms",
      "evidence.checkpoint_ms", "evidence.checkpoints", "evidence.bundle_kib",
      "trace.overhead_share"};
  return names;
}

[[nodiscard]] std::string unit_of(const std::string& name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
  };
  if (ends_with("_ms")) return "ms";
  if (ends_with("_mib")) return "MiB";
  if (ends_with("_kib")) return "KiB";
  if (ends_with("ns_per_eval")) return "ns";
  if (ends_with("_share") || ends_with("_eff")) return "ratio";
  return "count";
}

void emit_layers(const LayerMetrics& layers, Outcome& outcome) {
  for (const std::string& name : layer_metric_names()) {
    const auto found = layers.values.find(name);
    outcome.metrics.push_back(
        {name, found == layers.values.end() ? 0.0 : found->second,
         unit_of(name), 0, 0.0});
  }
}

/// The end-to-end metrics shared by every workload. Where a workload has
/// no separate notion of a metric, it reports its counterpart: a cold solve
/// is one decision, and each stream decision is one solve.
struct EndToEnd {
  std::vector<double> setup_s;
  Passes solve_ms;
  Passes decision_ms;
  /// Per completed operation: wall time since the previous one ended.
  Passes interval_ms;
  double utility_mean = 0.0;
};

void emit_end_to_end(const EndToEnd& e, Outcome& outcome) {
  const Distribution solve = distribution_of(e.solve_ms);
  const Distribution decision = distribution_of(e.decision_ms);
  const auto add = [&](const char* name, double value, const char* unit,
                       std::size_t samples = 0, double percentile = 0.0) {
    outcome.metrics.push_back({name, value, unit, samples, percentile});
  };
  add("setup_s", median_of(e.setup_s), "s", e.setup_s.size(), 50.0);
  add("solve_p50_ms", solve.p50, "ms", solve.samples, 50.0);
  add("solve_tail_ms", solve.tail, "ms", solve.samples, solve.percentile);
  const double rate = rate_of(e.interval_ms);
  add("solves_per_s", rate, "1/s", decision.samples, 50.0);
  add("decisions_per_s", rate, "1/s", decision.samples, 50.0);
  add("decision_p50_ms", decision.p50, "ms", decision.samples, 50.0);
  add("decision_tail_ms", decision.tail, "ms", decision.samples,
      decision.percentile);
  add("utility_mean", e.utility_mean, "utility");
  add("peak_rss_mb", peak_rss_mib(), "MiB");
}

[[nodiscard]] bool same_result(const algo::ScheduleResult& a,
                               const algo::ScheduleResult& b) {
  return std::bit_cast<std::uint64_t>(a.system_utility) ==
             std::bit_cast<std::uint64_t>(b.system_utility) &&
         a.evaluations == b.evaluations &&
         a.assignment.num_offloaded() == b.assignment.num_offloaded();
}

// ---------------------------------------------------------------------------
// Cold workloads: city-cold and paper-cell.

struct ColdSpec {
  bool sharded = false;
  std::size_t threads = 1;
  std::size_t servers = 9;
  std::function<std::size_t(std::uint64_t)> users;  ///< per drop
  /// Cold solves per drop, each from its own solve seed.
  std::size_t solves_per_drop = 1;
  /// Solves that always run and form the digest and utility_mean.
  std::size_t prefix_solves = 1;
  /// Passes over the same inputs in an untraced run (see Passes).
  std::size_t passes = 3;
};

[[nodiscard]] mec::Scenario build_drop(const ColdSpec& spec,
                                       std::uint64_t seed, std::uint64_t tag,
                                       std::uint64_t drop) {
  Rng rng(sim::stream_seed(seed, tag, drop));
  return mec::ScenarioBuilder()
      .num_users(spec.users(drop))
      .num_servers(spec.servers)
      .num_subchannels(kSubchannels)
      .build(rng);
}

/// One audited solve; nullopt (and a recorded problem) when it throws.
struct Attempt {
  std::optional<algo::ScheduleResult> result;
  double wall_ms = 0.0;
};

/// With a tracer, the call is recorded as an "algo.run_and_validate" span,
/// the parent of the scheduler's solve span.
[[nodiscard]] Attempt attempt_solve(const algo::Scheduler& solver,
                                    const jtora::CompiledProblem& problem,
                                    std::uint64_t solve_seed, Tracer* tracer,
                                    Outcome& outcome) {
  Rng rng(solve_seed);
  algo::SolveRequest request;
  request.problem = &problem;
  request.rng = &rng;
  Attempt attempt;
  ++outcome.attempted;
  Span span{"algo.run_and_validate"};
  if (tracer != nullptr) {
    span.id = tracer->next_id();
    span.request = tracer->request();
    tracer->open_root(span.id);
  }
  const std::int64_t start = now_ns();
  try {
    attempt.result = algo::run_and_validate(solver, request);
  } catch (const std::exception& e) {
    ++outcome.failed;
    outcome.problems.push_back(std::string("solve failed: ") + e.what());
  }
  const std::int64_t end = now_ns();
  attempt.wall_ms = ms_between(start, end);
  if (tracer != nullptr) {
    tracer->close_root();
    span.start_ns = start;
    span.end_ns = end;
    tracer->record(span);
  }
  return attempt;
}

[[nodiscard]] Outcome run_cold(const Options& options, const ColdSpec& spec) {
  Outcome outcome;
  outcome.threads = spec.threads;
  const bool trace = options.trace;
  Tracer tracer;
  Geometry geometry;

  // Set-up: build and compile the warm-up input, construct the
  // scheduler(s), one untimed warm-up solve. The first repetition counts
  // from process start.
  const std::size_t passes = trace ? 1 : spec.passes;
  EndToEnd e2e;
  std::unique_ptr<algo::Scheduler> plain;
  std::unique_ptr<algo::Scheduler> traced;
  std::uint64_t setups = 0;
  const auto set_up = [&] {
    const std::uint64_t rep = setups++;
    const std::int64_t start = rep == 0 ? 0 : now_ns();
    const std::uint64_t attempted = outcome.attempted;
    const mec::Scenario scenario =
        build_drop(spec, options.seed, kWarmupTag, rep);
    const jtora::CompiledProblem problem(scenario);
    plain = make_solver(spec.sharded, spec.threads, nullptr);
    const std::uint64_t warm_seed =
        sim::stream_seed(options.seed, kWarmupTag, 100 + rep);
    (void)attempt_solve(*plain, problem, warm_seed, nullptr, outcome);
    if (trace) {
      traced = make_solver(spec.sharded, spec.threads, &tracer);
      (void)attempt_solve(*traced, problem, warm_seed, &tracer, outcome);
    }
    outcome.attempted = attempted;  // warm-up solves are not timed work
    e2e.setup_s.push_back(seconds_since(start));
  };
  for (std::size_t i = 0; i < upfront_setups(trace, passes); ++i) set_up();
  if (!outcome.problems.empty()) return outcome;
  tracer.clear();
  if (trace) install_geometry_probe(tracer, geometry);

  // Timed phase. Pass 0 solves drop after drop for 1/passes of the time
  // (at least the digest's solves); each further pass rebuilds the same
  // drops and solves them with the same seeds, and must get the same
  // results. A traced run makes one pass.
  std::vector<double> build_ms, compile_ms, table_mib, traced_solve_seconds_ms;
  std::vector<std::string> first_results;  // pass 0's result line per solve
  double plain_ms = 0.0, traced_ms = 0.0, utility_sum = 0.0;
  std::uint64_t drops = 0;
  const std::int64_t phase_start = now_ns();
  for (std::size_t pass = 0; pass < passes; ++pass) {
    if (pass > 0) set_up();
    if (spec.threads == 1) pin_for_pass(pass);
    std::vector<double> solve_ms, interval_ms;
    std::int64_t last_end = now_ns();
    std::size_t solves = 0;
    for (std::uint64_t drop = 0;; ++drop) {
      if (pass > 0 ? drop == drops
                   : solves >= spec.prefix_solves &&
                         seconds_since(phase_start) *
                                 static_cast<double>(passes) >=
                             options.seconds) {
        drops = drop;
        break;
      }
      const std::int64_t t0 = now_ns();
      const mec::Scenario scenario =
          build_drop(spec, options.seed, kDropTag, drop);
      const std::int64_t t1 = now_ns();
      const jtora::CompiledProblem problem(scenario);
      const std::int64_t t2 = now_ns();
      build_ms.push_back(ms_between(t0, t1));
      compile_ms.push_back(ms_between(t1, t2));
      table_mib.push_back(static_cast<double>(problem.num_users() *
                                              problem.num_servers() *
                                              scenario.num_subchannels() * 8) /
                          (1024.0 * 1024.0));
      if (trace) {
        tracer.record({"mec.build", tracer.next_id(), 0, tracer.request(), t0,
                       t1, 0, false});
        tracer.record({"jtora.compile", tracer.next_id(), 0, tracer.request(),
                       t1, t2, 0, false});
      }
      for (std::size_t r = 0; r < spec.solves_per_drop; ++r, ++solves) {
        const std::uint64_t solve_seed =
            sim::stream_seed(options.seed, kSolveTag, solves);
        const bool traced_first = trace && solves % 2 == 1;
        Attempt traced_attempt;
        if (traced_first) {
          traced_attempt =
              attempt_solve(*traced, problem, solve_seed, &tracer, outcome);
        }
        const Attempt attempt =
            attempt_solve(*plain, problem, solve_seed, nullptr, outcome);
        if (trace && !traced_first) {
          traced_attempt =
              attempt_solve(*traced, problem, solve_seed, &tracer, outcome);
        }
        if (!attempt.result.has_value()) continue;
        const algo::ScheduleResult& result = *attempt.result;
        solve_ms.push_back(attempt.wall_ms);
        const std::int64_t end = now_ns();
        interval_ms.push_back(ms_between(last_end, end));
        last_end = end;
        const std::string line =
            "users=" + std::to_string(problem.num_users()) +
            " utility=" + hexfloat(result.system_utility) +
            " evaluations=" + std::to_string(result.evaluations) +
            " offloaded=" + std::to_string(result.assignment.num_offloaded());
        if (pass == 0) {
          first_results.push_back(line);
          if (solves < spec.prefix_solves) {
            utility_sum += result.system_utility;
            outcome.digest.push_back("solve " + std::to_string(solves) + " " +
                                     line);
          }
        } else if (solves >= first_results.size() ||
                   first_results[solves] != line) {
          outcome.problems.push_back(
              "pass " + std::to_string(pass) + " solve " +
              std::to_string(solves) + " differs from pass 0");
        }
        if (!trace) continue;
        tracer.next_request();
        if (!traced_attempt.result.has_value()) continue;
        if (!same_result(result, *traced_attempt.result)) {
          outcome.problems.push_back("traced solve " + std::to_string(solves) +
                                     " differs from the untraced one");
        }
        plain_ms += attempt.wall_ms;
        traced_ms += traced_attempt.wall_ms;
        traced_solve_seconds_ms.push_back(
            traced_attempt.result->solve_seconds * 1e3);
      }
    }
    outcome.passes = pass + 1;
    e2e.solve_ms.push_back(std::move(solve_ms));
    e2e.interval_ms.push_back(std::move(interval_ms));
  }
  if (trace) outcome.attempted /= 2;  // each input ran traced and untraced

  if (!trace) {
    e2e.decision_ms = e2e.solve_ms;
    e2e.utility_mean =
        utility_sum / static_cast<double>(std::min(first_results.size(),
                                                   spec.prefix_solves));
    emit_end_to_end(e2e, outcome);
    return outcome;
  }

  const std::vector<Span> spans = tracer.spans();
  if (!options.trace_out.empty()) tracer.write_csv(options.trace_out);
  const LayerSplit split = split_layers(spans, traced_solve_seconds_ms);
  if (!spec.sharded && split.shard_spans > 0) {
    outcome.problems.push_back("shard spans on an unsharded workload");
  }
  if (spec.sharded && split.sharded_solves != split.solves) {
    outcome.problems.push_back("a city-scale solve bypassed the shards");
  }
  LayerMetrics layers;
  layers.set("mec.build_ms", mean_of(build_ms));
  layers.set("jtora.compile_ms", mean_of(compile_ms));
  layers.set("jtora.signal_table_mib", mean_of(table_mib));
  if (spec.sharded) {
    layers.set("geo.shards", geometry.shards);
    layers.set("geo.boundary_user_share", geometry.boundary_share);
  }
  layers.add_split(split, spec.threads);
  // run_and_validate's self time: the audit around the solve span.
  std::vector<double> audit_ms;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == "algo.run_and_validate") {
      audit_ms.push_back(self_ms(s, spans));
    }
  }
  layers.set("algo.audit_ms", mean_of(audit_ms));
  layers.set("trace.overhead_share",
             plain_ms > 0.0
                 ? (traced_ms - geometry.probe_ms) / plain_ms - 1.0
                 : 0.0);
  emit_layers(layers, outcome);
  return outcome;
}

// ---------------------------------------------------------------------------
// stream-saturated.

/// A short stream on a grid whose admission capacity is held about 240
/// slots below its own (about 100 sessions): it saturates within about
/// 1.5 s of simulated time and runs in about 1 s, so a 30 s run replays it
/// about fifteen times (see Passes).
[[nodiscard]] sim::StreamConfig stream_config(bool toy) {
  sim::StreamConfig c;
  c.duration_s = 4.0;
  c.arrival_rate_hz = toy ? 12.0 : 60.0;
  c.lifetime_min_s = 1.0;
  c.lifetime_max_s = toy ? 3.0 : 4.0;
  c.cloud_cpu_hz = 20e9;
  c.cloud_max_forwarded = toy ? 4 : 40;
  c.fault.server_mtbf_epochs = 100.0;
  c.fault.server_mttr_epochs = 3.0;
  c.fault.backhaul_mtbf_epochs = 20.0;
  c.fault.backhaul_mttr_epochs = 3.0;
  c.fault_interval_s = 0.25;
  c.breaker.trip_after = 2;
  c.breaker.cooldown_epochs = 3;
  c.breaker.close_after = 1;
  c.decision_budget.max_iterations = toy ? 2000 : 20000;
  c.checkpoint_interval_s = 1.0;
  c.admission.max_backlog = toy ? 8 : 32;
  c.admission.headroom = toy ? 0 : 240;
  return c;
}

struct StreamRun {
  sim::StreamReport report;
  double wall_ms = 0.0;
  std::vector<double> latency_ms;
  std::vector<double> solve_ms;
  std::vector<double> interval_ms;  ///< per decision, since the previous
  std::string events;  ///< events.jsonl, the replay-identity witness
  double bundle_kib = 0.0;
  bool ok = false;
};

[[nodiscard]] std::uint64_t count_of(const sim::StreamReport& r,
                                     std::string_view type) {
  if (type == "arrival") return r.arrivals;
  if (type == "admit") return r.admitted;
  if (type == "queue") return r.queued;
  if (type == "reject") return r.rejected;
  if (type == "promote") return r.promoted;
  if (type == "depart") return r.departed;
  if (type == "solve") return r.decisions;
  if (type == "checkpoint") return r.checkpoints;
  if (type == "fault") return r.fault_steps;
  return 0;
}

/// Checks a finished evidence bundle against its report: every event line
/// counted by type, every checkpoint read back (CRC verified).
void check_bundle(const std::string& dir, StreamRun& run, Outcome& outcome) {
  std::ifstream in(dir + "/events.jsonl", std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  run.events = text.str();
  std::map<std::string, std::uint64_t, std::less<>> lines;
  std::istringstream lines_in(run.events);
  std::string line;
  constexpr std::string_view kPrefix = "{\"e\":\"";
  while (std::getline(lines_in, line)) {
    const std::size_t end = line.find('"', kPrefix.size());
    if (line.rfind(kPrefix, 0) != 0 || end == std::string::npos) {
      outcome.problems.push_back("malformed event line: " + line);
      return;
    }
    ++lines[line.substr(kPrefix.size(), end - kPrefix.size())];
  }
  for (const char* type : {"arrival", "admit", "queue", "reject", "promote",
                           "depart", "solve", "checkpoint", "fault"}) {
    const auto found = lines.find(type);
    const std::uint64_t seen = found == lines.end() ? 0 : found->second;
    if (seen != count_of(run.report, type)) {
      outcome.problems.push_back(
          std::string("events.jsonl has ") + std::to_string(seen) + " " +
          type + " lines, StreamReport counts " +
          std::to_string(count_of(run.report, type)));
    }
  }
  std::uint64_t checkpoints = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    run.bundle_kib += static_cast<double>(entry.file_size()) / 1024.0;
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    ++checkpoints;
    try {
      const sim::StreamCheckpoint cp =
          sim::read_checkpoint_file(entry.path().string());
      if (cp.decisions > run.report.decisions ||
          cp.checkpoints_emitted > run.report.checkpoints) {
        outcome.problems.push_back(name + " is ahead of the run it belongs to");
      }
    } catch (const std::exception& e) {
      outcome.problems.push_back(name + " unreadable: " + e.what());
    }
  }
  if (checkpoints != run.report.checkpoints) {
    outcome.problems.push_back(
        std::to_string(checkpoints) + " checkpoint files for " +
        std::to_string(run.report.checkpoints) + " checkpoints");
  }
}

/// Streams whose decisions form utility_mean and the digest: one 4 s
/// stream's mean utility differs by about 12 % from seed to seed (quartile
/// distance over median). Only the first is timed.
constexpr std::uint64_t kUtilityStreams = 3;

/// A set-up (about 0.4 s) takes as long as a replay, so the timed phase
/// sets up again only before every this-many replays.
constexpr std::uint64_t kReplaysPerSetup = 4;

[[nodiscard]] StreamRun run_stream(const sim::StreamDriver& driver,
                                   const algo::Scheduler& solver,
                                   std::uint64_t seed, const std::string& dir,
                                   Tracer* tracer, Outcome& outcome) {
  StreamRun run;
  fs::remove_all(dir);
  try {
    {
      sim::EvidenceWriter evidence(dir);
      MeasuringSink sink(evidence, tracer);
      Span span{"sim.stream_run"};
      if (tracer != nullptr) {
        span.id = tracer->next_id();
        span.request = tracer->request();
        tracer->open_root(span.id);
      }
      span.start_ns = now_ns();
      run.report = driver.run(solver, seed, &sink);
      span.end_ns = now_ns();
      run.wall_ms = ms_between(span.start_ns, span.end_ns);
      if (tracer != nullptr) {
        tracer->close_root();
        tracer->record(span);
      }
      evidence.finish(run.report, solver.name());
      run.latency_ms = sink.latency_ms();
      run.solve_ms = sink.solve_ms();
      std::int64_t previous = span.start_ns;
      for (const std::int64_t end : sink.decision_end_ns()) {
        run.interval_ms.push_back(ms_between(previous, end));
        previous = end;
      }
    }
    outcome.attempted += run.report.decisions;
    check_bundle(dir, run, outcome);
    run.ok = true;
  } catch (const std::exception& e) {
    ++outcome.attempted;
    ++outcome.failed;
    outcome.problems.push_back(std::string("stream run failed: ") + e.what());
  }
  fs::remove_all(dir);
  return run;
}

[[nodiscard]] std::string stream_digest(const sim::StreamReport& r) {
  return "stream decisions=" + std::to_string(r.decisions) +
         " arrivals=" + std::to_string(r.arrivals) +
         " admitted=" + std::to_string(r.admitted) +
         " queued=" + std::to_string(r.queued) +
         " promoted=" + std::to_string(r.promoted) +
         " rejected=" + std::to_string(r.rejected) +
         " departed=" + std::to_string(r.departed) +
         " fault_steps=" + std::to_string(r.fault_steps) +
         " breaker_trips=" + std::to_string(r.breaker_trips) +
         " checkpoints=" + std::to_string(r.checkpoints) +
         " utility_mean=" + hexfloat(r.utility.mean());
}

[[nodiscard]] Outcome run_stream_saturated(const Options& options) {
  Outcome outcome;
  const std::size_t servers = options.toy ? 9 : 100;
  // One shard thread, not four: on a shared 4-vCPU host a contended spell
  // turns every per-decision pool barrier into a stall, and
  // decision_tail_ms spread 25-31% across ten seeds at two and four
  // threads. city-cold keeps the parallel path under measurement.
  const std::size_t threads = 1;
  outcome.threads = threads;
  const bool trace = options.trace;
  const sim::StreamConfig config = stream_config(options.toy);
  sim::StreamConfig warmup_config = config;
  warmup_config.duration_s = 1.0;
  warmup_config.checkpoint_interval_s = 0.5;
  Tracer tracer;
  Geometry geometry;

  // Set-up: construct the StreamDrivers and scheduler(s), then one short
  // untimed warm-up stream (its first decisions are the warm-up solves).
  // The first repetition counts from process start.
  EndToEnd e2e;
  std::optional<sim::StreamDriver> driver;
  std::unique_ptr<algo::Scheduler> plain;
  std::unique_ptr<algo::Scheduler> traced;
  std::uint64_t setups = 0;
  const auto set_up = [&] {
    const std::uint64_t rep = setups++;
    const std::int64_t start = rep == 0 ? 0 : now_ns();
    const std::uint64_t attempted = outcome.attempted;
    driver.emplace(servers, kSubchannels, config);
    const sim::StreamDriver warmup(servers, kSubchannels, warmup_config);
    plain = make_solver(true, threads, nullptr);
    const std::uint64_t warm_seed =
        sim::stream_seed(options.seed, kWarmupTag, rep);
    (void)run_stream(warmup, *plain, warm_seed, options.work_dir + "/warmup",
                     nullptr, outcome);
    if (trace) {
      traced = make_solver(true, threads, &tracer);
      (void)run_stream(warmup, *traced, warm_seed,
                       options.work_dir + "/warmup", &tracer, outcome);
    }
    outcome.attempted = attempted;  // warm-up decisions are not timed work
    e2e.setup_s.push_back(seconds_since(start));
  };
  const std::uint64_t min_passes = trace ? 1 : 2;
  for (std::size_t i = 0; i < upfront_setups(trace, 1); ++i) set_up();
  if (!outcome.problems.empty()) return outcome;
  tracer.clear();
  if (trace) install_geometry_probe(tracer, geometry);

  // Untimed: the streams after the first, run once for utility_mean and the
  // digest, and checked like every other.
  double utility_sum = 0.0;
  std::size_t utility_count = 0;
  const std::string dir = options.work_dir + "/stream";
  std::vector<std::string> digest;
  for (std::uint64_t i = 1; i < kUtilityStreams && !trace; ++i) {
    const StreamRun run =
        run_stream(*driver, *plain,
                   sim::stream_seed(options.seed, kStreamTag, i), dir,
                   nullptr, outcome);
    if (!run.ok) return outcome;
    digest.push_back(stream_digest(run.report));
    utility_sum += run.report.utility.mean() *
                   static_cast<double>(run.report.utility.count());
    utility_count += run.report.utility.count();
  }
  outcome.attempted = 0;

  // Timed phase: the first stream, closed loop, replayed while another
  // replay is likely to end by the deadline (an untraced run replays it at
  // least twice). Every replay must write the first one's events.jsonl byte
  // for byte. Each replay is a pass (see Passes).
  std::vector<StreamRun> traced_runs;
  double plain_ms = 0.0, traced_ms = 0.0;
  const std::uint64_t seed = sim::stream_seed(options.seed, kStreamTag, 0);
  std::string first_events;
  const std::int64_t phase_start = now_ns();
  double last_s = 0.0;
  for (std::uint64_t k = 0;
       k < min_passes ||
       seconds_since(phase_start) + 0.5 * last_s < options.seconds;
       ++k) {
    if (k > 0 && k % kReplaysPerSetup == 0 && !trace) set_up();
    pin_for_pass(k);  // one shard thread: the stream runs on this thread
    const std::int64_t stream_start = now_ns();
    const bool traced_first = trace && k % 2 == 1;
    StreamRun traced_run;
    if (traced_first) {
      traced_run = run_stream(*driver, *traced, seed, dir, &tracer, outcome);
    }
    StreamRun run = run_stream(*driver, *plain, seed, dir, nullptr, outcome);
    if (trace && !traced_first) {
      traced_run = run_stream(*driver, *traced, seed, dir, &tracer, outcome);
    }
    last_s = seconds_since(stream_start);
    if (!run.ok) break;
    outcome.passes = k + 1;
    if (k == 0) {
      digest.insert(digest.begin(), stream_digest(run.report));
      utility_sum += run.report.utility.mean() *
                     static_cast<double>(run.report.utility.count());
      utility_count += run.report.utility.count();
      first_events = run.events;
    } else if (run.events != first_events) {
      outcome.problems.push_back("stream replay " + std::to_string(k) +
                                 " diverged from replay 0");
    }
    e2e.decision_ms.push_back(run.latency_ms);
    e2e.solve_ms.push_back(run.solve_ms);
    e2e.interval_ms.push_back(run.interval_ms);
    if (!trace) continue;
    if (!traced_run.ok) break;
    if (traced_run.events != run.events) {
      outcome.problems.push_back("traced stream " + std::to_string(k) +
                                 " diverged from the untraced replay");
    }
    plain_ms += run.wall_ms;
    traced_ms += traced_run.wall_ms;
    traced_runs.push_back(std::move(traced_run));
  }
  outcome.digest.insert(outcome.digest.end(), digest.begin(), digest.end());
  if (utility_count > 0) {
    e2e.utility_mean = utility_sum / static_cast<double>(utility_count);
  }
  if (trace) outcome.attempted /= 2;

  if (!trace) {
    emit_end_to_end(e2e, outcome);
    return outcome;
  }

  const std::vector<Span> spans = tracer.spans();
  if (!options.trace_out.empty()) tracer.write_csv(options.trace_out);
  std::vector<double> record_solve_ms, latency_ms;
  for (const StreamRun& run : traced_runs) {
    record_solve_ms.insert(record_solve_ms.end(), run.solve_ms.begin(),
                           run.solve_ms.end());
    latency_ms.insert(latency_ms.end(), run.latency_ms.begin(),
                      run.latency_ms.end());
  }
  const LayerSplit split = split_layers(spans, record_solve_ms);
  LayerMetrics layers;
  layers.add_split(split, threads);
  if (split.solve_span_ms.size() != latency_ms.size()) {
    outcome.problems.push_back("solve spans do not pair with decisions");
  } else if (!latency_ms.empty()) {
    std::vector<double> loop_ms;
    double loop_sum = 0.0, latency_sum = 0.0;
    for (std::size_t i = 0; i < latency_ms.size(); ++i) {
      loop_ms.push_back(latency_ms[i] - split.solve_span_ms[i]);
      loop_sum += loop_ms.back();
      latency_sum += latency_ms[i];
    }
    const auto n = static_cast<double>(latency_ms.size());
    layers.set("stream.solve_p50_ms", median_of(split.solve_span_ms));
    layers.set("stream.loop_p50_ms", median_of(loop_ms));
    layers.set("stream.loop_share", loop_sum / latency_sum);
    layers.set("stream.warm_share", static_cast<double>(split.warm) / n);
    layers.set("stream.evals_per_decision", split.evaluations / n);
  }
  std::vector<double> event_ms, checkpoint_ms;
  for (const Span& s : spans) {
    const std::string_view name = s.name;
    if (name == "sink.event") event_ms.push_back(s.ms());
    if (name == "sink.checkpoint") checkpoint_ms.push_back(s.ms());
  }
  layers.set("evidence.event_ms", mean_of(event_ms));
  layers.set("evidence.checkpoint_ms", mean_of(checkpoint_ms));
  layers.set("geo.shards", geometry.shards);
  layers.set("geo.boundary_user_share", geometry.boundary_share);
  if (!traced_runs.empty()) {
    const StreamRun& first = traced_runs.front();
    const sim::StreamReport& r = first.report;
    layers.set("jtora.signal_table_mib",
               r.active_sessions.mean() *
                   static_cast<double>(servers * kSubchannels * 8) /
                   (1024.0 * 1024.0));
    layers.set("stream.admitted", static_cast<double>(r.admitted));
    layers.set("stream.queued", static_cast<double>(r.queued));
    layers.set("stream.promoted", static_cast<double>(r.promoted));
    layers.set("stream.rejected", static_cast<double>(r.rejected));
    layers.set("stream.reject_share", r.reject_ratio());
    layers.set("stream.fault_steps", static_cast<double>(r.fault_steps));
    layers.set("stream.breaker_trips", static_cast<double>(r.breaker_trips));
    layers.set("stream.active_mean", r.active_sessions.mean());
    layers.set("stream.backlog_mean", r.backlog_depth.mean());
    layers.set("evidence.checkpoints", static_cast<double>(r.checkpoints));
    layers.set("evidence.bundle_kib", first.bundle_kib);
  }
  layers.set("trace.overhead_share",
             plain_ms > 0.0
                 ? (traced_ms - geometry.probe_ms) / plain_ms - 1.0
                 : 0.0);
  emit_layers(layers, outcome);
  return outcome;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"city-cold", "paper-cell",
                                                 "stream-saturated"};
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "city-cold") {
    ColdSpec spec;
    spec.sharded = true;
    spec.threads = options.toy ? 2 : 4;
    spec.servers = options.toy ? 16 : 400;
    const std::size_t users = options.toy ? 400 : 10000;
    spec.users = [users](std::uint64_t) { return users; };
    spec.solves_per_drop = 2;
    spec.prefix_solves = 4;
    spec.passes = 5;
    return run_cold(options, spec);
  }
  if (options.workload == "paper-cell") {
    ColdSpec spec;
    spec.users = [](std::uint64_t drop) {
      return static_cast<std::size_t>(30 * (1 + drop % 3));
    };
    spec.prefix_solves = options.toy ? 30 : 300;
    spec.passes = 10;
    return run_cold(options, spec);
  }
  if (options.workload == "stream-saturated") {
    return run_stream_saturated(options);
  }
  throw InvalidArgumentError("unknown workload: " + options.workload);
}

}  // namespace perfbench
