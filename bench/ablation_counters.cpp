// Ablation — lazy-update hit counters vs O(n)-reset counters (the paper's
// S4 implementation note). With n subjects and only a handful of hits per
// query, resetting an n-slot array per query dominates; the lazy epoch
// scheme makes per-query cost proportional to the hits alone.
#include <benchmark/benchmark.h>

#include "oracle/hit_counters.hpp"
#include "util/prng.hpp"

namespace {

using namespace jem;

// One "query": bump the round, apply `hits` increments to random subjects.
template <typename Counter>
void run_queries(Counter& counter, std::size_t n, int hits,
                 benchmark::State& state) {
  util::Xoshiro256ss rng(42);
  for (auto _ : state) {
    counter.new_round();
    std::uint32_t last = 0;
    for (int h = 0; h < hits; ++h) {
      last = counter.increment(
          static_cast<io::SeqId>(rng.bounded(n)));
    }
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * hits);
}

void BM_LazyCounter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int hits = static_cast<int>(state.range(1));
  oracle::LazyHitCounter counter(n);
  run_queries(counter, n, hits, state);
}
BENCHMARK(BM_LazyCounter)
    ->Args({1'000, 64})
    ->Args({100'000, 64})
    ->Args({1'000'000, 64});

void BM_ResettingCounter(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int hits = static_cast<int>(state.range(1));
  oracle::ResettingHitCounter counter(n);
  run_queries(counter, n, hits, state);
}
BENCHMARK(BM_ResettingCounter)
    ->Args({1'000, 64})
    ->Args({100'000, 64})
    ->Args({1'000'000, 64});

}  // namespace

BENCHMARK_MAIN();
