#include "mpisim/communicator.hpp"

#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace jem::mpisim {

void CommStats::publish(obs::Registry& registry) const {
  registry.counter("mpisim.collective.calls").add(collective_calls);
  registry.counter("mpisim.collective.bytes", obs::Unit::kBytes)
      .add(collective_bytes);
  for (const auto& [site, volume] : per_site) {
    registry.counter("mpisim." + site + ".calls").add(volume.calls);
    for (std::size_t r = 0; r < volume.sent_bytes.size(); ++r) {
      const std::string rank = ".rank" + std::to_string(r);
      registry
          .counter("mpisim." + site + rank + ".sent_bytes", obs::Unit::kBytes)
          .add(volume.sent_bytes[r]);
      registry
          .counter("mpisim." + site + rank + ".recv_bytes", obs::Unit::kBytes)
          .add(volume.recv_bytes[r]);
    }
  }
}

namespace detail {

SharedState::SharedState(int size, obs::ObsHooks obs)
    : size_(size),
      obs_(obs),
      slots_(static_cast<std::size_t>(size)),
      active_(size) {}

void SharedState::try_publish_locked() {
  if (active_ <= 0 || arrived_ != active_) return;
  // Last arriver (or the exit that removed the last straggler) publishes
  // the snapshot and resets the exchange area for the next collective.
  // Earlier ranks may already be blocked in the next exchange; the
  // generation counter keeps the rounds separate.
  snapshot_ = std::make_shared<const std::vector<std::vector<std::byte>>>(
      std::move(slots_));
  slots_.assign(static_cast<std::size_t>(size_), {});
  arrived_ = 0;
  ++generation_;
  ++stats_.collective_calls;
  cv_.notify_all();
}

SharedState::Snapshot SharedState::exchange(int rank, std::string_view site,
                                            std::vector<std::byte> bytes) {
  // Declared before the lock so the span's finish (which writes the tracer's
  // thread-local buffer) runs after mutex_ is released. The span covers the
  // whole collective including the wait for stragglers — exactly the time a
  // real MPI rank would spend inside the call.
  std::optional<obs::Span> span;
  if (obs_.tracer != nullptr) span.emplace(obs_.tracer->span(site));

  std::unique_lock lock(mutex_);
  const std::uint64_t my_generation = generation_;
  const std::uint64_t sent = bytes.size();
  stats_.collective_bytes += sent;
  slots_[static_cast<std::size_t>(rank)] = std::move(bytes);
  ++arrived_;
  try_publish_locked();
  // No later round can publish before this rank deposits in it, so the
  // snapshot seen on waking is this round's.
  cv_.wait(lock, [&] { return generation_ != my_generation; });
  SiteCommStats& volume = site_locked(site);
  ++volume.calls;
  volume.sent_bytes[static_cast<std::size_t>(rank)] += sent;
  return snapshot_;
}

void SharedState::received(int rank, std::string_view site,
                           std::uint64_t bytes) {
  std::lock_guard lock(mutex_);
  site_locked(site).recv_bytes[static_cast<std::size_t>(rank)] += bytes;
}

SiteCommStats& SharedState::site_locked(std::string_view site) {
  auto it = stats_.per_site.find(site);
  if (it == stats_.per_site.end()) {
    const std::vector<std::uint64_t> zeros(static_cast<std::size_t>(size_));
    it = stats_.per_site.emplace(site, SiteCommStats{0, zeros, zeros}).first;
  }
  return it->second;
}

void SharedState::mark_inactive() {
  std::lock_guard lock(mutex_);
  --active_;
  try_publish_locked();
}

}  // namespace detail

SpmdReport run_spmd_ft(int size, const std::function<void(Comm&)>& body,
                       const SpmdOptions& options) {
  if (size <= 0) {
    throw std::invalid_argument("run_spmd_ft: size must be positive");
  }
  detail::SharedState state(size, options.obs);

  const auto ranks = static_cast<std::size_t>(size);
  std::vector<std::optional<RankFailure>> failures(ranks);
  std::vector<std::exception_ptr> errors(ranks);
  std::vector<std::uint64_t> fired(ranks, 0);

  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (int rank = 0; rank < size; ++rank) {
    threads.emplace_back([rank, &state, &body, &options, &failures, &errors,
                          &fired] {
      if (options.obs.tracer != nullptr) {
        options.obs.tracer->set_thread_label("rank " +
                                             std::to_string(rank));
      }
      util::FaultInjector injector(options.fault_plan, rank);
      Comm comm(rank, state, injector.active() ? &injector : nullptr);
      const auto r = static_cast<std::size_t>(rank);
      try {
        body(comm);
      } catch (const util::FaultAbort& abort) {
        failures[r] = RankFailure{rank, abort.site(), abort.what()};
      } catch (...) {
        errors[r] = std::current_exception();
      }
      state.mark_inactive();
      fired[r] = injector.faults_injected();
    });
  }
  for (std::thread& thread : threads) thread.join();

  SpmdReport report;
  report.stats = state.stats();
  for (std::size_t r = 0; r < ranks; ++r) {
    report.faults_injected += fired[r];
    if (failures[r]) report.failures.push_back(std::move(*failures[r]));
  }
  if (options.obs.metrics != nullptr) {
    report.stats.publish(*options.obs.metrics);
    options.obs.metrics->counter("mpisim.faults_injected")
        .add(report.faults_injected);
    options.obs.metrics->counter("mpisim.rank_failures")
        .add(report.failures.size());
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return report;
}

}  // namespace jem::mpisim
