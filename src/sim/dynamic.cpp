#include "sim/dynamic.h"

#include <cmath>
#include <optional>
#include <utility>

#include "common/error.h"
#include "common/stopwatch.h"
#include "common/units.h"
#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"
#include "jtora/utility.h"
#include "mec/cloud.h"
#include "mec/scenario_workspace.h"
#include "radio/spectrum.h"

namespace tsajs::sim {

void DynamicConfig::validate() const {
  TSAJS_REQUIRE(epochs >= 1, "need at least one epoch");
  TSAJS_REQUIRE(activity_prob > 0.0 && activity_prob <= 1.0,
                "activity probability must lie in (0,1]");
  TSAJS_REQUIRE(mobility_step_m >= 0.0, "mobility step must be >= 0");
  TSAJS_REQUIRE(
      min_megacycles > 0.0 && max_megacycles >= min_megacycles,
      "workload range must be positive and ordered");
  TSAJS_REQUIRE(min_input_kb > 0.0 && max_input_kb >= min_input_kb,
                "input-size range must be positive and ordered");
  TSAJS_REQUIRE(std::isfinite(cloud_cpu_hz) && cloud_cpu_hz >= 0.0,
                "cloud capacity must be finite and >= 0 (0 disables)");
  if (cloud_cpu_hz > 0.0) {
    TSAJS_REQUIRE(std::isfinite(cloud_backhaul_bps) && cloud_backhaul_bps > 0.0,
                  "cloud backhaul rate must be positive and finite");
    TSAJS_REQUIRE(std::isfinite(cloud_backhaul_latency_s) &&
                      cloud_backhaul_latency_s >= 0.0,
                  "cloud backhaul latency must be non-negative and finite");
  }
  fault.validate();
  breaker.validate();
}

DynamicSimulator::DynamicSimulator(std::size_t population,
                                   std::size_t num_servers,
                                   std::size_t num_subchannels,
                                   DynamicConfig config,
                                   mec::UserEquipment prototype,
                                   mec::EdgeServer server_prototype,
                                   double bandwidth_hz, double noise_dbm)
    : population_(population),
      num_subchannels_(num_subchannels),
      config_(config),
      prototype_(prototype),
      layout_(num_servers, 1000.0),
      channel_(radio::make_paper_channel()),
      bandwidth_hz_(bandwidth_hz),
      noise_w_(units::dbm_to_watts(noise_dbm)) {
  TSAJS_REQUIRE(population >= 1, "need at least one user");
  TSAJS_REQUIRE(num_subchannels >= 1, "need at least one sub-channel");
  config_.validate();
  servers_.resize(num_servers);
  for (std::size_t s = 0; s < num_servers; ++s) {
    servers_[s] = server_prototype;
    servers_[s].position = layout_.site(s);
  }
}

DynamicReport DynamicSimulator::run(const algo::Scheduler& scheduler,
                                    Rng& rng, WarmStart warm) const {
  // Initial placement.
  std::vector<geo::Point> positions(population_);
  for (auto& p : positions) p = layout_.sample_in_network(rng);
  // Waypoint targets — only drawn in waypoint mode, so kWalk timelines
  // consume exactly the historical env-stream draws.
  std::vector<geo::Point> waypoints;
  if (config_.mobility_model == MobilityModel::kWaypoint) {
    waypoints.resize(population_);
    for (auto& w : waypoints) w = layout_.sample_in_network(rng);
  }
  std::vector<geo::Point> bs_positions(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    bs_positions[s] = servers_[s].position;
  }

  // Epoch-persistent state: the workspace keeps the user vector and gain
  // tensor allocated; the path-loss cache memoizes the deterministic term
  // per population member; `carried` remembers, per population member, the
  // slot held after the most recent scheduled epoch (the warm-start hint).
  mec::ScenarioWorkspace workspace(
      servers_, radio::Spectrum(bandwidth_hz_, num_subchannels_), noise_w_);
  const bool has_cloud = config_.cloud_cpu_hz > 0.0;
  if (has_cloud) {
    // The tier is static across the timeline; faults vary only the
    // availability mask, never the tier itself.
    workspace.set_cloud(mec::CloudTier::uniform(
        config_.cloud_cpu_hz, config_.cloud_backhaul_bps,
        config_.cloud_backhaul_latency_s, servers_.size(),
        config_.cloud_max_forwarded));
  }
  radio::PathLossCache pathloss_cache;
  pathloss_cache.reset(population_, servers_.size());
  std::vector<std::optional<jtora::Slot>> carried(population_);
  std::vector<std::uint8_t> carried_forwarded(population_, 0);
  // One CompiledProblem lives for the whole timeline: compile() reuses its
  // flat buffers epoch over epoch and skips per-user constant blocks whose
  // parameters did not change, so each epoch pays only for the re-drawn
  // channel tables plus whatever tasks actually changed.
  jtora::CompiledProblem compiled;

  std::vector<std::size_t> active;
  std::vector<geo::Point> user_positions;
  active.reserve(population_);
  user_positions.reserve(population_);

  // Fault stream: derived from the caller's RNG *only* when faults are
  // enabled — derive_seed advances the environment stream, so a disabled
  // injector leaves the whole timeline bit-identical to pre-fault code.
  std::optional<FaultInjector> injector;
  if (config_.fault.enabled()) {
    injector.emplace(servers_.size(), num_subchannels_, config_.fault,
                     rng.derive_seed(0xFA01'7EDULL));
  }
  // The breaker consumes no randomness — its state is a pure function of
  // the injector's raw masks — so enabling it never shifts an RNG stream.
  mec::BackhaulBreaker breaker(servers_.size(), config_.breaker);

  DynamicReport report;
  report.epochs.reserve(config_.epochs);

  // Recovery tracking: `pre_fault_utility` freezes the last healthy
  // scheduled utility when an outage begins; healthy scheduled epochs are
  // then counted until utility first re-reaches it.
  double last_healthy_utility = 0.0;
  double pre_fault_utility = 0.0;
  bool have_healthy_baseline = false;
  bool recovering = false;
  std::size_t recovery_epochs = 0;

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    // 0. Faults progress on wall-clock epochs (before traffic is drawn, so
    // an empty epoch still advances outages and repairs).
    bool faulted = false;
    if (injector.has_value()) {
      workspace.set_availability(advance_fault_step(*injector, breaker));
      // A breaker-withheld link degrades the epoch the same way a raw
      // outage does — forwarding capacity is gone either way.
      faulted = injector->any_fault() || breaker.blocked_count() > 0;
      if (faulted) ++report.faulted_epochs;
    }
    // 1. Mobility. Walk: independent random step, rejected if it leaves
    // the network (the historical draws, bit-identical). Waypoint: move
    // toward the user's target; a fresh target is drawn on arrival, so the
    // env stream only pays per completed leg.
    if (config_.mobility_model == MobilityModel::kWaypoint) {
      for (std::size_t g = 0; g < population_; ++g) {
        geo::Point& p = positions[g];
        const double dx = waypoints[g].x - p.x;
        const double dy = waypoints[g].y - p.y;
        const double dist = std::hypot(dx, dy);
        if (dist <= config_.mobility_step_m) {
          p = waypoints[g];
          waypoints[g] = layout_.sample_in_network(rng);
        } else {
          p.x += config_.mobility_step_m * dx / dist;
          p.y += config_.mobility_step_m * dy / dist;
        }
      }
    } else {
      for (auto& p : positions) {
        for (int attempt = 0; attempt < 8; ++attempt) {
          const double angle = rng.uniform(0.0, 2.0 * M_PI);
          const geo::Point candidate{
              p.x + config_.mobility_step_m * std::cos(angle),
              p.y + config_.mobility_step_m * std::sin(angle)};
          if (layout_.contains(layout_.nearest_cell(candidate), candidate)) {
            p = candidate;
            break;
          }
        }
      }
    }

    // 2. Task arrivals: the epoch's active set, staged into the workspace.
    workspace.begin_epoch();
    std::vector<mec::UserEquipment>& users = workspace.users();
    active.clear();
    for (std::size_t g = 0; g < population_; ++g) {
      if (!rng.bernoulli(config_.activity_prob)) continue;
      mec::UserEquipment ue = prototype_;
      ue.task = mec::Task(
          units::kilobytes_to_bits(
              rng.uniform(config_.min_input_kb, config_.max_input_kb)),
          units::megacycles_to_cycles(rng.uniform(config_.min_megacycles,
                                                  config_.max_megacycles)));
      ue.position = positions[g];
      active.push_back(g);
      users.push_back(std::move(ue));
    }
    if (users.empty()) {
      // Nothing to schedule: the epoch appears in the timeline but adds no
      // sample to the aggregates, so every accumulator keeps the same
      // count (one per *scheduled* epoch).
      EpochStats empty;
      if (injector.has_value()) {
        empty.faulted = faulted;
        empty.servers_down = injector->servers_down();
        empty.backhauls_down = injector->backhauls_down();
        empty.slots_unavailable =
            injector->availability().num_unavailable_slots();
        empty.breakers_open = breaker.blocked_count();
      }
      report.epochs.push_back(empty);
      ++report.empty_epochs;
      continue;
    }

    // 3. Fresh channel draws for the epoch's geometry, written into the
    // workspace tensor; path loss is only recomputed for users that moved.
    user_positions.resize(users.size());
    for (std::size_t i = 0; i < users.size(); ++i) {
      user_positions[i] = users[i].position;
    }
    channel_.regenerate_into(user_positions, bs_positions, num_subchannels_,
                             rng, workspace.gains(), &pathloss_cache,
                             &active);
    if (injector.has_value() && injector->noise_burst_active()) {
      // Transient estimation error on top of the epoch's fresh draws; uses
      // the injector's stream, so the environment stream stays untouched.
      injector->perturb_gains(workspace.gains());
    }
    const mec::Scenario& scenario = workspace.commit();
    compiled.compile(scenario);

    // Graceful-degradation accounting: active users whose previous slot sat
    // on a resource that is now masked. Warm repair returns them to local
    // (eviction); a cold solve re-places them from scratch either way.
    std::size_t evictions = 0;
    std::size_t cloud_recalls = 0;
    if (injector.has_value()) {
      for (std::size_t i = 0; i < active.size(); ++i) {
        const auto& slot = carried[active[i]];
        if (!slot.has_value()) continue;
        if (!scenario.slot_available(slot->server, slot->subchannel)) {
          ++evictions;
        } else if (carried_forwarded[active[i]] != 0 &&
                   !scenario.backhaul_available(slot->server)) {
          // Slot survives but the cloud link behind it is dead: the user is
          // recalled to edge-served (warm) or re-tiered from scratch (cold).
          ++cloud_recalls;
        }
      }
    }

    // 4. Solve the snapshot. The scheduler gets a derived child RNG so that
    // its own randomness cannot perturb the environment stream — two
    // schedulers fed the same seed therefore see the *identical* timeline
    // (paired comparison; this also makes warm vs. cold a paired
    // comparison, since the warm hint only reaches the scheduler's side).
    Rng scheduler_rng(rng.derive_seed(epoch));
    algo::ScheduleResult result = [&] {
      if (warm == WarmStart::kWarm) {
        // Repair the carried assignment for this epoch's active set: users
        // that went inactive are simply absent (their slots free), newly
        // active users enter local, and survivors keep their slots.
        // Faulted resources evict their users to local (jtora::carry_slot).
        jtora::Assignment hint(scenario);
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (const auto& slot = carried[active[i]]) {
            jtora::carry_slot(hint, i, *slot,
                              carried_forwarded[active[i]] != 0);
          }
        }
        return algo::run_and_validate(
            scheduler,
            {.problem = &compiled, .hint = &hint, .rng = &scheduler_rng});
      }
      return algo::run_and_validate(
          scheduler, {.problem = &compiled, .rng = &scheduler_rng});
    }();

    // Remember this epoch's outcome as the next epoch's hint.
    carried.assign(population_, std::nullopt);
    carried_forwarded.assign(population_, 0);
    for (std::size_t i = 0; i < active.size(); ++i) {
      carried[active[i]] = result.assignment.slot_of(i);
      if (result.assignment.is_forwarded(i)) carried_forwarded[active[i]] = 1;
    }

    // 5. Record — against the same compilation the solve used.
    const jtora::UtilityEvaluator evaluator(compiled);
    const jtora::Evaluation eval = evaluator.evaluate(result.assignment);
    EpochStats stats;
    stats.active_users = scenario.num_users();
    stats.offloaded = result.assignment.num_offloaded();
    stats.forwarded = result.assignment.num_forwarded();
    report.total_forwarded += stats.forwarded;
    stats.utility = result.system_utility;
    stats.solve_seconds = result.solve_seconds;
    if (injector.has_value()) {
      stats.faulted = faulted;
      stats.servers_down = injector->servers_down();
      stats.backhauls_down = injector->backhauls_down();
      stats.slots_unavailable = scenario.availability().num_unavailable_slots();
      stats.evictions = evictions;
      stats.cloud_recalls = cloud_recalls;
      stats.breakers_open = breaker.blocked_count();
      report.total_evictions += evictions;
      report.total_cloud_recalls += cloud_recalls;
    }
    Accumulator delay;
    Accumulator energy;
    for (const auto& user : eval.users) {
      delay.add(user.total_delay_s);
      energy.add(user.energy_j);
    }
    stats.mean_delay_s = delay.mean();
    stats.mean_energy_j = energy.mean();

    report.epochs.push_back(stats);
    report.utility.add(stats.utility);
    report.offload_ratio.add(static_cast<double>(stats.offloaded) /
                             static_cast<double>(stats.active_users));
    report.mean_delay_s.add(stats.mean_delay_s);
    report.mean_energy_j.add(stats.mean_energy_j);
    report.solve_seconds.add(stats.solve_seconds);

    // Degradation metrics: split utility samples by fault state and track
    // recovery after an outage clears.
    if (injector.has_value()) {
      if (stats.faulted) {
        report.faulted_utility.add(stats.utility);
        if (have_healthy_baseline && !recovering) {
          pre_fault_utility = last_healthy_utility;
          recovering = true;
        }
        recovery_epochs = 0;
      } else {
        report.healthy_utility.add(stats.utility);
        if (recovering) {
          ++recovery_epochs;
          if (stats.utility >= pre_fault_utility) {
            report.epochs_to_recover.add(
                static_cast<double>(recovery_epochs));
            recovering = false;
          }
        }
        last_healthy_utility = stats.utility;
        have_healthy_baseline = true;
      }
    }
  }
  report.breaker_trips = breaker.trips();
  report.breaker_half_opens = breaker.half_opens();
  report.breaker_closes = breaker.closes();
  return report;
}

}  // namespace tsajs::sim
