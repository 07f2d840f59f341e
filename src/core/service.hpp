// MappingService — the stable service-facing API over MappingEngine.
//
// Every front end (the `jem map` batch CLI, `jem serve`'s HTTP server, and
// future subcommand modes) consumes the engine through this facade instead
// of re-plumbing MapParams/MapRequest by hand:
//
//  * ServiceConfig — one validated builder assembling MapParams + scheme,
//    including the string-valued knobs CLI front ends parse ("lex"/"hash"
//    orderings, "jem"/"minhash" schemes). Invalid values surface as a
//    structured ServiceError naming the offending field — mirroring the
//    index artifact's params-fingerprint diagnostics — instead of ad-hoc
//    stderr-and-exit at each call site.
//  * MapServiceRequest / MapServiceResponse — the stable request/response
//    pair of the mapping service: one query segment in, its candidate
//    subjects out. Responses carry a structured ServiceFailure (taxonomy in
//    ServiceErrorCode) instead of throwing on per-request conditions such
//    as an expired deadline, so a server can keep serving.
//  * MappingService — owns the subject set and the MappingEngine, loads a
//    frozen JEMIDX1 index when one is offered (core::index_serde, with the
//    same reject-and-rebuild fallback jem_map uses), and maps one request
//    per call, bit-identical to JemMapper::map_segment (golden-tested).
//
// Thread model: map() is const and thread-safe given a per-thread
// MapScratch, exactly like JemMapper::map_segment. The serve layer's
// workers each keep one scratch and call map() directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "core/mapper.hpp"
#include "core/params.hpp"
#include "io/sequence_set.hpp"

namespace jem::core {

/// Why a service call could not be satisfied. The service-layer analogue of
/// io::ArtifactReason: every failure is one of these, so callers (and HTTP
/// status mapping) switch on the code instead of parsing message text.
enum class ServiceErrorCode {
  kInvalidArgument,   // a config/request field is out of range (named)
  kDeadlineExceeded,  // the request's deadline expired before mapping ran
  kOverloaded,        // admission queue full — shed, retry later
  kIndexUnavailable,  // no usable index and rebuilding was not permitted
  kInternal,          // unexpected condition (a bug, not a caller error)
};

/// Stable name of a code ("invalid-argument", "deadline-exceeded", ...) —
/// the `error` field of the serve layer's JSON error bodies and the
/// failure annotation of its flight-recorder records (/debug/requests,
/// docs/observability.md), so dumps and error responses cross-reference
/// by the same vocabulary.
[[nodiscard]] std::string_view service_error_name(
    ServiceErrorCode code) noexcept;

/// Thrown by configuration/request builders on invalid input. `field()`
/// names the offending field ("k", "ordering", "sequence", ...), so CLI
/// and HTTP front ends can point at exactly what to fix.
class ServiceError : public std::runtime_error {
 public:
  ServiceError(ServiceErrorCode code, std::string field, std::string detail);

  [[nodiscard]] ServiceErrorCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& field() const noexcept { return field_; }

 private:
  ServiceErrorCode code_;
  std::string field_;
};

/// The validated mapping configuration every entry point shares: MapParams
/// plus the sketch scheme. Construct through the builder.
struct ServiceConfig {
  MapParams params;
  SketchScheme scheme = SketchScheme::kJem;

  class Builder;
  [[nodiscard]] static Builder make();
};

/// Fluent assembly with per-field validation at build(): each out-of-range
/// or unparsable value throws ServiceError(kInvalidArgument) naming the
/// field. String setters accept exactly what the CLI accepts ("lex"/"hash",
/// "jem"/"minhash"); numeric setters take the CLI's uint64 values and
/// range-check them here, so a `--k 99` diagnostic names "k" everywhere.
class ServiceConfig::Builder {
 public:
  Builder& k(std::uint64_t value);
  Builder& window(std::uint64_t value);
  Builder& trials(std::uint64_t value);
  Builder& segment_length(std::uint64_t value);
  Builder& seed(std::uint64_t value);
  Builder& min_votes(std::uint64_t value);
  Builder& ordering(MinimizerOrdering value);
  Builder& ordering(std::string_view name);  // "lex" | "hash"
  Builder& scheme(SketchScheme value);
  Builder& scheme(std::string_view name);  // "jem" | "minhash"

  /// Validates every field and returns the finished config. Throws
  /// ServiceError(kInvalidArgument) naming the first offending field.
  [[nodiscard]] ServiceConfig build() const;

 private:
  std::uint64_t k_ = 16;
  std::uint64_t w_ = 100;
  std::uint64_t trials_ = 30;
  std::uint64_t segment_length_ = 1000;
  std::uint64_t seed_ = 20230517;
  std::uint64_t min_votes_ = 1;
  std::string ordering_name_ = "lex";
  std::string scheme_name_ = "jem";
};

/// One mapping request: a query segment plus how to report it. Construct
/// through the builder (validated) or aggregate-initialize and rely on
/// MappingService validating at map() time.
struct MapServiceRequest {
  std::string sequence;  // query segment bases (mapped as one segment)
  std::size_t top_x = 1;  // candidates to report (1 = best hit only)

  /// Optional tightening of MapParams::min_votes for this request (same
  /// contract as MapRequest::min_votes: must be >= the configured value).
  std::optional<std::uint32_t> min_votes;

  /// Per-request deadline budget measured from map() entry (the serve
  /// layer measures from handle() entry instead). zero = no deadline.
  std::chrono::milliseconds deadline{0};

  class Builder;
  [[nodiscard]] static Builder make();

  /// Field-by-field validation against the service's parameters. Throws
  /// ServiceError(kInvalidArgument) naming the offending field.
  void validate(const MapParams& params) const;
};

class MapServiceRequest::Builder {
 public:
  Builder& sequence(std::string bases);
  Builder& top_x(std::size_t value);
  Builder& min_votes(std::uint32_t value);
  Builder& deadline(std::chrono::milliseconds value);

  /// Validates the request shape (sequence present, top_x >= 1). Service-
  /// dependent checks (min_votes floor) run again inside map().
  [[nodiscard]] MapServiceRequest build() const;

 private:
  MapServiceRequest request_;
};

/// One candidate subject of a response, name resolved.
struct MapServiceHit {
  io::SeqId subject = io::kInvalidSeqId;
  std::string subject_name;
  std::uint32_t votes = 0;

  friend bool operator==(const MapServiceHit&, const MapServiceHit&) = default;
};

/// Structured per-request failure (the response-level analogue of
/// EngineFailure): the taxonomy code plus a human-readable message.
struct ServiceFailure {
  ServiceErrorCode code = ServiceErrorCode::kInternal;
  std::string message;

  friend bool operator==(const ServiceFailure&, const ServiceFailure&) =
      default;
};

/// Result of one mapping request. `hits` is ordered by votes descending
/// (ties to the smaller subject id), empty when the segment is unmapped;
/// hits[0] is bit-identical to JemMapper::map_segment on the same bytes.
struct MapServiceResponse {
  std::vector<MapServiceHit> hits;
  std::uint32_t trials = 0;   // T the service ran with (response context)
  bool cache_hit = false;     // set by the serve layer's LRU, never here
  std::optional<ServiceFailure> failure;

  [[nodiscard]] bool ok() const noexcept { return !failure.has_value(); }
  [[nodiscard]] bool mapped() const noexcept { return !hits.empty(); }

  friend bool operator==(const MapServiceResponse&, const MapServiceResponse&) =
      default;
};

class MappingService {
 public:
  using Clock = std::chrono::steady_clock;

  /// Builds the sketch index from `subjects` (parallel S2, sort-based
  /// table build; JemMapper's constructor). The service
  /// owns the subject set — callers hand it over by value and query through
  /// the service from then on.
  MappingService(io::SequenceSet subjects, ServiceConfig config);

  /// Adopts a pre-built (e.g. loaded) frozen table.
  MappingService(io::SequenceSet subjects, ServiceConfig config,
                 SketchTable table);

  /// Loads the frozen JEMIDX1 index at `index_path` (core::index_serde) and
  /// serves from it. A missing/corrupt/mismatched artifact is never fatal:
  /// the reason is recorded in load_report() and the index is rebuilt from
  /// the subject set — the same degrade-gracefully contract jem_map's
  /// --load-index has always had.
  [[nodiscard]] static MappingService from_index(const std::string& index_path,
                                                 io::SequenceSet subjects,
                                                 ServiceConfig config);

  MappingService(const MappingService&) = delete;
  MappingService& operator=(const MappingService&) = delete;
  /// Movable: the subject set and engine live behind stable pointers, so
  /// the engine's internal reference to the subjects survives the move.
  MappingService(MappingService&&) noexcept = default;
  MappingService& operator=(MappingService&&) noexcept = default;

  /// How the index came to be: loaded from an artifact or rebuilt (and why).
  struct LoadReport {
    bool loaded_from_artifact = false;
    std::string rejection;  // non-empty when an offered artifact was rejected
  };
  [[nodiscard]] const LoadReport& load_report() const noexcept {
    return load_report_;
  }

  [[nodiscard]] const MappingEngine& engine() const noexcept {
    return *engine_;
  }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const io::SequenceSet& subjects() const noexcept {
    return *subjects_;
  }

  /// Fresh per-thread scratch sized for this service's subject set.
  [[nodiscard]] MapScratch make_scratch() const {
    return MapScratch(subjects_->size());
  }

  /// Maps one request on the caller's thread with a private scratch
  /// (convenience for tests and one-shot callers).
  [[nodiscard]] MapServiceResponse map(const MapServiceRequest& request) const;

  /// Hot path: maps one request reusing `scratch`. `deadline` is the
  /// absolute expiry (handle() entry + budget in the serve layer); nullopt
  /// derives it from request.deadline at entry. An expired deadline returns
  /// a response with failure = kDeadlineExceeded instead of mapping — the
  /// same contained-failure shape run_stream_guarded gives EngineTimeout.
  [[nodiscard]] MapServiceResponse map(
      const MapServiceRequest& request, MapScratch& scratch,
      std::optional<Clock::time_point> deadline = std::nullopt) const;

 private:
  std::unique_ptr<io::SequenceSet> subjects_;  // stable across moves
  ServiceConfig config_;
  std::unique_ptr<MappingEngine> engine_;  // set in every constructor
  LoadReport load_report_;
};

}  // namespace jem::core
