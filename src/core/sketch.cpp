#include "core/sketch.hpp"

#include <algorithm>
#include <deque>

namespace jem::core {

namespace {

/// Sorts and dedups every trial's k-mer list in place.
void normalize(Sketch& sketch) {
  for (auto& kmers : sketch.per_trial) {
    std::sort(kmers.begin(), kmers.end());
    kmers.erase(std::unique(kmers.begin(), kmers.end()), kmers.end());
  }
}

/// argmin by (hash value, k-mer code) — the k-mer tie-break makes the result
/// independent of scan order.
struct HashedKmer {
  std::uint64_t hash;
  KmerCode kmer;

  [[nodiscard]] bool less_than(const HashedKmer& other) const noexcept {
    return hash < other.hash || (hash == other.hash && kmer < other.kmer);
  }
};

}  // namespace

namespace {

/// Fast path for the query side: when the whole minimizer list spans at most
/// ℓ positions (always true for an end segment of length <= ℓ), every
/// interval [p_i, p_i + ℓ] reaches the end of the list, so the interval
/// minimum of position i is simply the suffix minimum over [i, n). One
/// backward scan per trial replaces the sliding-window rings entirely.
///
/// The k-mers are copied to a flat array once, each trial's LcgHash is
/// hoisted into locals, and each trial writes its emitted minima straight
/// into its column of out.kmers (sized T·|M| up front, trimmed at the end).
void sketch_by_jem_suffix(std::span<const Minimizer> minimizers,
                          const HashFamily& hashes, SketchScratch& scratch,
                          FlatSketch& out) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  const std::size_t count = minimizers.size();
  std::vector<KmerCode>& kmers = scratch.kmers;
  kmers.resize(count);
  for (std::size_t i = 0; i < count; ++i) kmers[i] = minimizers[i].kmer;

  out.kmers.resize(trials * count);
  out.offsets.resize(trials + 1);
  out.offsets[0] = 0;
  std::size_t written = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    const LcgHash hash = hashes[static_cast<int>(t)];
    KmerCode* const column = out.kmers.data() + written;
    std::uint64_t best_hash = hash(kmers[count - 1]);
    KmerCode best_kmer = kmers[count - 1];
    column[0] = best_kmer;
    std::size_t emitted = 1;
    // The running minimum only ever improves strictly walking backward, so
    // each emitted (hash, kmer) is strictly smaller than the last — the
    // emitted k-mers are already distinct, no dedup pass needed. Every
    // candidate is written at column[emitted] and kept only if it improved
    // (emitted < count, so the write stays inside this trial's T·|M| share).
    for (std::size_t i = count - 1; i-- > 0;) {
      const KmerCode kmer = kmers[i];
      const std::uint64_t h = hash(kmer);
      const bool better =
          h < best_hash || (h == best_hash && kmer < best_kmer);
      best_hash = better ? h : best_hash;
      best_kmer = better ? kmer : best_kmer;
      column[emitted] = kmer;
      emitted += better;
    }
    std::sort(column, column + emitted);
    written += emitted;
    out.offsets[t + 1] = static_cast<std::uint32_t>(written);
  }
  out.kmers.resize(written);
}

}  // namespace

void sketch_by_jem(std::span<const Minimizer> minimizers,
                   std::uint32_t interval_length, const HashFamily& hashes,
                   SketchScratch& scratch, FlatSketch& out) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  out.clear();

  // Suffix-minima shortcut: if the last interval's start already admits the
  // last minimizer, every interval runs to the end of the list. Identical
  // output to the general path — equal (hash, kmer) pairs carry equal
  // k-mers, and each trial is sorted + deduped either way.
  if (!minimizers.empty() &&
      minimizers.back().position - minimizers.front().position <=
          interval_length) {
    sketch_by_jem_suffix(minimizers, hashes, scratch, out);
    return;
  }

  // One sliding-window-minimum ring per trial, advanced in lockstep with
  // the interval two-pointer. The rings and the emission buffer live in the
  // scratch, so repeat calls allocate nothing once capacities settle.
  auto& windows = scratch.windows;
  if (windows.size() < trials) windows.resize(trials);
  for (std::size_t t = 0; t < trials; ++t) windows[t].clear();
  scratch.emitted.clear();

  std::size_t right = 0;  // first minimizer not yet in any window
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;

    // Extend the interval: admit minimizers with p_j <= p_i + ℓ.
    while (right < minimizers.size() && minimizers[right].position <= limit) {
      const KmerCode kmer = minimizers[right].kmer;
      for (std::size_t t = 0; t < trials; ++t) {
        auto& window = windows[t];
        const std::uint64_t hash = hashes.hash(static_cast<int>(t), kmer);
        // Pop entries >= (hash, kmer): min tie-break toward smaller k-mer.
        while (!window.empty() &&
               !(window.back().hash < hash ||
                 (window.back().hash == hash && window.back().kmer < kmer))) {
          window.pop_back();
        }
        window.push_back({hash, kmer, static_cast<std::uint32_t>(right)});
      }
      ++right;
    }

    // Shrink: evict minimizers that precede the interval start, then emit
    // every trial's interval minimum (minimizer-major layout).
    for (std::size_t t = 0; t < trials; ++t) {
      auto& window = windows[t];
      while (window.front().index < i) window.pop_front();
      scratch.emitted.push_back(window.front().kmer);
    }
  }

  // Normalize each trial: gather its emission column, sort, dedup, append.
  // The result is element-for-element equal to Sketch::per_trial[t].
  out.offsets.reserve(trials + 1);
  out.offsets.push_back(0);
  const std::size_t count = minimizers.size();
  for (std::size_t t = 0; t < trials; ++t) {
    scratch.trial_tmp.clear();
    for (std::size_t i = 0; i < count; ++i) {
      scratch.trial_tmp.push_back(scratch.emitted[i * trials + t]);
    }
    std::sort(scratch.trial_tmp.begin(), scratch.trial_tmp.end());
    const auto last =
        std::unique(scratch.trial_tmp.begin(), scratch.trial_tmp.end());
    out.kmers.insert(out.kmers.end(), scratch.trial_tmp.begin(), last);
    out.offsets.push_back(static_cast<std::uint32_t>(out.kmers.size()));
  }
}

Sketch sketch_by_jem(std::span<const Minimizer> minimizers,
                     std::uint32_t interval_length,
                     const HashFamily& hashes) {
  SketchScratch scratch;
  FlatSketch flat;
  sketch_by_jem(minimizers, interval_length, hashes, scratch, flat);
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(hashes.trials()));
  for (int t = 0; t < hashes.trials(); ++t) {
    const auto kmers = flat.trial(t);
    sketch.per_trial[static_cast<std::size_t>(t)].assign(kmers.begin(),
                                                         kmers.end());
  }
  return sketch;
}

Sketch sketch_by_jem(std::string_view seq, const SketchParams& params,
                     const HashFamily& hashes) {
  const std::vector<Minimizer> minimizers =
      minimizer_scan(seq, params.minimizer);
  return sketch_by_jem(minimizers, params.interval_length, hashes);
}

Sketch sketch_by_jem_reference(std::span<const Minimizer> minimizers,
                               std::uint32_t interval_length,
                               const HashFamily& hashes) {
  const int trials = hashes.trials();
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(trials));
  if (minimizers.empty()) return sketch;

  // One sliding-window-minimum deque per trial, advanced in lockstep with
  // the interval two-pointer. Entries store (hash, kmer, index-in-list).
  struct Entry {
    HashedKmer hk;
    std::size_t index;
  };
  std::vector<std::deque<Entry>> deques(static_cast<std::size_t>(trials));

  std::size_t right = 0;  // first minimizer not yet in any deque
  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;

    // Extend the interval: admit minimizers with p_j <= p_i + ℓ.
    while (right < minimizers.size() && minimizers[right].position <= limit) {
      const KmerCode kmer = minimizers[right].kmer;
      for (int t = 0; t < trials; ++t) {
        auto& deque = deques[static_cast<std::size_t>(t)];
        const HashedKmer hk{hashes.hash(t, kmer), kmer};
        while (!deque.empty() && !deque.back().hk.less_than(hk)) {
          deque.pop_back();
        }
        deque.push_back({hk, right});
      }
      ++right;
    }

    // Shrink: evict minimizers that precede the interval start.
    for (int t = 0; t < trials; ++t) {
      auto& deque = deques[static_cast<std::size_t>(t)];
      while (deque.front().index < i) deque.pop_front();
      auto& kmers = sketch.per_trial[static_cast<std::size_t>(t)];
      const KmerCode minhash = deque.front().hk.kmer;
      if (kmers.empty() || kmers.back() != minhash) kmers.push_back(minhash);
    }
  }

  normalize(sketch);
  return sketch;
}

Sketch sketch_by_jem_naive(std::span<const Minimizer> minimizers,
                           std::uint32_t interval_length,
                           const HashFamily& hashes) {
  const int trials = hashes.trials();
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(trials));

  for (std::size_t i = 0; i < minimizers.size(); ++i) {
    const std::uint64_t limit =
        static_cast<std::uint64_t>(minimizers[i].position) + interval_length;
    std::size_t end = i;
    while (end < minimizers.size() && minimizers[end].position <= limit) {
      ++end;
    }
    for (int t = 0; t < trials; ++t) {
      HashedKmer best{hashes.hash(t, minimizers[i].kmer), minimizers[i].kmer};
      for (std::size_t j = i + 1; j < end; ++j) {
        const HashedKmer hk{hashes.hash(t, minimizers[j].kmer),
                            minimizers[j].kmer};
        if (hk.less_than(best)) best = hk;
      }
      sketch.per_trial[static_cast<std::size_t>(t)].push_back(best.kmer);
    }
  }

  normalize(sketch);
  return sketch;
}

void classic_minhash(std::string_view seq, int k, const HashFamily& hashes,
                     SketchScratch& scratch, FlatSketch& out) {
  const auto trials = static_cast<std::size_t>(hashes.trials());
  out.clear();
  const KmerCodec codec(k);

  auto& best_hash = scratch.best_hash;
  auto& best_kmer = scratch.best_kmer;
  best_hash.assign(trials, 0);
  best_kmer.assign(trials, 0);
  bool any = false;

  // Rolling scan over all k-mers, restarting after ambiguous bases.
  KmerCode fwd = 0;
  KmerCode rc = 0;
  int valid = 0;  // valid bases accumulated toward the next full k-mer
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::uint8_t code = base_code(seq[i]);
    if (code == kInvalidBase) {
      valid = 0;
      continue;
    }
    fwd = codec.roll(fwd, code);
    rc = codec.roll_rc(rc, code);
    if (++valid < k) continue;
    valid = k;  // saturate so the counter cannot overflow on long runs

    const KmerCode canon = fwd < rc ? fwd : rc;
    for (std::size_t t = 0; t < trials; ++t) {
      const std::uint64_t hash = hashes.hash(static_cast<int>(t), canon);
      if (!any || hash < best_hash[t] ||
          (hash == best_hash[t] && canon < best_kmer[t])) {
        best_hash[t] = hash;
        best_kmer[t] = canon;
      }
    }
    any = true;
  }

  out.offsets.reserve(trials + 1);
  out.offsets.push_back(0);
  for (std::size_t t = 0; t < trials; ++t) {
    if (any) out.kmers.push_back(best_kmer[t]);
    out.offsets.push_back(static_cast<std::uint32_t>(out.kmers.size()));
  }
}

Sketch classic_minhash(std::string_view seq, int k, const HashFamily& hashes) {
  SketchScratch scratch;
  FlatSketch flat;
  classic_minhash(seq, k, hashes, scratch, flat);
  Sketch sketch;
  sketch.per_trial.resize(static_cast<std::size_t>(hashes.trials()));
  for (int t = 0; t < hashes.trials(); ++t) {
    const auto kmers = flat.trial(t);
    sketch.per_trial[static_cast<std::size_t>(t)].assign(kmers.begin(),
                                                         kmers.end());
  }
  return sketch;
}

}  // namespace jem::core
