// Canonical lexicographic minimizers (Roberts et al. 2004), the base sampling
// layer of the JEM sketch.
//
// Definition used by the paper (§III-B2, implementation notes): for window
// size w, the minimizer of w consecutive k-mers is the lexicographically
// smallest *canonical* k-mer (the smaller of the k-mer and its reverse
// complement). A minimizer is appended to the ordered list M_o(s, w) only
// when it changes or the current one slides out of scope, yielding the
// position-sorted list of distinct minimizer occurrences.
//
// The scan is one pass over the bases and O(|s|) on every input, tandem
// repeats included. Window minima use the two-block van Herk / Gil-Werman
// scheme: the k-mers of a run are cut into blocks of w; the filling (back)
// block keeps a running prefix minimum, a full block is turned into
// suffix minima (leftmost on ties) by one right-to-left pass and becomes the
// front block, and every window minimum is one compare-and-select between
// the front's suffix minimum and the back's prefix minimum. Ties go to the
// leftmost occurrence. k-mers containing non-ACGT bases break the sequence
// into independent runs (no window spans an ambiguous base).
//
// On x86-64 the lexicographic scan with k <= 16 runs that window on 8 lanes
// (AVX-512BW) or 4 (AVX2) at once, each k-mer keyed `canon << 32 |
// position` so one vector minimum picks the smallest code and the leftmost
// on ties (src/core/minimizer_lanes.cpp). One kernel has two ways to fill
// its lanes:
// - minimizer_scan splits one sequence's ACGT run into one contiguous
//   range of windows per lane, and concatenates the lanes' lists with the
//   repeat at each seam dropped. Each lane pays w + k - 2 warm-up steps.
// - minimizer_scan_many puts one whole sequence in each lane: groups of
//   all-ACGT sequences of one length (the engine's query segments), each
//   lane's list its own sequence's, with no warm-up beyond the scalar
//   loop's own.
// The kernel is chosen once per process from the CPU
// (minimizer_scan_lanes). The scalar loop runs everywhere else: k > 16,
// kRandomHash (its 64-bit hash keys cannot be packed with a position), runs
// too short to fill the lanes, and non-x86 hosts. Every kernel and both
// ways of filling the lanes return the same list, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "core/kmer.hpp"

namespace jem::core {

/// One minimizer occurrence: the canonical k-mer code and the start position
/// of the k-mer occurrence it was selected from.
struct Minimizer {
  KmerCode kmer = 0;
  std::uint32_t position = 0;

  friend bool operator==(const Minimizer&, const Minimizer&) = default;
};

/// How window minima are selected. The paper uses the lexicographically
/// smallest canonical k-mer ("consistent with previous works [23], [24]").
/// kRandomHash orders k-mers by a mixed hash of the canonical code instead —
/// the improvement of Marçais et al. 2017 (the paper's ref [24]): it avoids
/// the poly-A/low-complexity bias of lexicographic ordering and gives a
/// density closer to the theoretical 2/(w+1). Exposed for the ordering
/// ablation; all paper experiments use kLexicographic.
enum class MinimizerOrdering : std::uint8_t { kLexicographic, kRandomHash };

struct MinimizerParams {
  int k = 16;   // k-mer size
  int w = 100;  // number of consecutive k-mers per window
  MinimizerOrdering ordering = MinimizerOrdering::kLexicographic;
};

/// Reusable state of the scan: the window blocks, w slots each (w rows of
/// one key per lane on the lane kernels). A scratch that survives across
/// calls makes the scan allocation-free at steady state (the blocks only
/// grow, to the largest w seen).
struct MinimizerScratch {
  std::vector<std::uint64_t> keys;         // back block: ordering keys
  std::vector<std::uint64_t> suffix_keys;  // front block: suffix minima
  std::vector<std::uint32_t> suffix_pos;   // position of each suffix minimum
  std::vector<KmerCode> canons;  // kRandomHash: canonical codes, a ring
                                 // indexed by position
  // Lane kernels: each lane's distinct window minima as packed keys,
  // merged in lane order at the end of a run.
  std::array<std::vector<std::uint64_t>, 8> lane_minima;
  // minimizer_scan_many: the sequences that can share a group, as
  // length << 32 | index.
  std::vector<std::uint64_t> group_order;
};

/// Computes M_o(s, w): the position-sorted list of distinct minimizer
/// occurrences of `seq`. Sequences shorter than one full window (k + w - 1
/// bases) within an ACGT run contribute the minimizer of each partial run
/// only if at least one k-mer exists (the window is truncated to the run) —
/// matching how short contigs still produce sketches in practice.
[[nodiscard]] std::vector<Minimizer> minimizer_scan(std::string_view seq,
                                                    const MinimizerParams& p);

/// Scratch-reusing form of the scan: clears and fills `out`, reusing the
/// scratch's window blocks. Produces exactly the same list as the
/// allocating overload.
void minimizer_scan(std::string_view seq, const MinimizerParams& p,
                    MinimizerScratch& scratch, std::vector<Minimizer>& out);

/// Scans many sequences: replaces outs[i] with exactly minimizer_scan's
/// list of seqs[i] (positions relative to seqs[i]). On the lane kernels,
/// all-ACGT sequences of one length, at least k + w - 1 bases each, are
/// scanned one per lane in groups of up to minimizer_scan_lanes(); a
/// group too small to pay for itself, and every other sequence, is scanned
/// alone. Returns how many sequences were scanned in groups. Throws
/// std::invalid_argument if `outs` is shorter than `seqs`.
std::size_t minimizer_scan_many(std::span<const std::string_view> seqs,
                                const MinimizerParams& p,
                                MinimizerScratch& scratch,
                                std::span<std::vector<Minimizer>> outs);

/// Windows per step of the scan kernel this process runs: 8 (AVX-512BW),
/// 4 (AVX2) or 1 (the scalar loop). Chosen from the CPU on the first call;
/// the engine publishes it as the gauge core.minimizer.lanes.
[[nodiscard]] int minimizer_scan_lanes() noexcept;

/// Expected density of distinct minimizers: 2/(w+1) per k-mer position.
[[nodiscard]] constexpr double expected_minimizer_density(int w) noexcept {
  return 2.0 / (static_cast<double>(w) + 1.0);
}

}  // namespace jem::core
