#include "core/service.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/index_serde.hpp"
#include "io/artifact.hpp"

namespace jem::core {

std::string_view service_error_name(ServiceErrorCode code) noexcept {
  switch (code) {
    case ServiceErrorCode::kInvalidArgument: return "invalid-argument";
    case ServiceErrorCode::kDeadlineExceeded: return "deadline-exceeded";
    case ServiceErrorCode::kOverloaded: return "overloaded";
    case ServiceErrorCode::kIndexUnavailable: return "index-unavailable";
    case ServiceErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

ServiceError::ServiceError(ServiceErrorCode code, std::string field,
                           std::string detail)
    : std::runtime_error(std::string(service_error_name(code)) + ": " + field +
                         ": " + detail),
      code_(code),
      field_(std::move(field)),
      detail_(std::move(detail)) {}

// --- ServiceConfig::Builder -------------------------------------------------

ServiceConfig::Builder ServiceConfig::make() { return {}; }

ServiceConfig::Builder& ServiceConfig::Builder::k(std::uint64_t value) {
  k_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::window(std::uint64_t value) {
  w_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::trials(std::uint64_t value) {
  trials_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::segment_length(
    std::uint64_t value) {
  segment_length_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::seed(std::uint64_t value) {
  seed_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::min_votes(
    std::uint64_t value) {
  min_votes_ = value;
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::ordering(
    MinimizerOrdering value) {
  ordering_name_ =
      value == MinimizerOrdering::kRandomHash ? "hash" : "lex";
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::ordering(
    std::string_view name) {
  ordering_name_ = std::string(name);
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::scheme(SketchScheme value) {
  scheme_name_ = value == SketchScheme::kClassicMinhash ? "minhash" : "jem";
  return *this;
}
ServiceConfig::Builder& ServiceConfig::Builder::scheme(std::string_view name) {
  scheme_name_ = std::string(name);
  return *this;
}

ServiceConfig ServiceConfig::Builder::build() const {
  const auto bad = [](std::string field, std::string detail) {
    return ServiceError(ServiceErrorCode::kInvalidArgument, std::move(field),
                        std::move(detail));
  };
  if (k_ < 1 || k_ > 32) {
    throw bad("k", "k-mer size must be in [1, 32], got " +
                       std::to_string(k_));
  }
  if (w_ < 1 || w_ > (1u << 20)) {
    throw bad("w", "minimizer window must be in [1, 2^20], got " +
                       std::to_string(w_));
  }
  if (trials_ < 1 || trials_ > 4096) {
    throw bad("trials", "trial count T must be in [1, 4096], got " +
                            std::to_string(trials_));
  }
  if (segment_length_ < 1 || segment_length_ > (1ull << 31)) {
    throw bad("segment", "segment length must be in [1, 2^31], got " +
                             std::to_string(segment_length_));
  }
  if (min_votes_ < 1 || min_votes_ > trials_) {
    throw bad("min-votes", "min_votes must be in [1, trials=" +
                               std::to_string(trials_) + "], got " +
                               std::to_string(min_votes_));
  }

  ServiceConfig config;
  config.params.k = static_cast<int>(k_);
  config.params.w = static_cast<int>(w_);
  config.params.trials = static_cast<int>(trials_);
  config.params.segment_length = static_cast<std::uint32_t>(segment_length_);
  config.params.seed = seed_;
  config.params.min_votes = static_cast<std::uint32_t>(min_votes_);

  if (ordering_name_ == "lex") {
    config.params.ordering = MinimizerOrdering::kLexicographic;
  } else if (ordering_name_ == "hash") {
    config.params.ordering = MinimizerOrdering::kRandomHash;
  } else {
    throw bad("ordering", "unknown minimizer ordering '" + ordering_name_ +
                              "' (expected lex | hash)");
  }

  if (scheme_name_ == "jem") {
    config.scheme = SketchScheme::kJem;
  } else if (scheme_name_ == "minhash") {
    config.scheme = SketchScheme::kClassicMinhash;
  } else {
    throw bad("scheme", "unknown sketch scheme '" + scheme_name_ +
                            "' (expected jem | minhash)");
  }

  config.params.validate();  // belt and braces; field checks above are finer
  return config;
}

// --- MapServiceRequest ------------------------------------------------------

void MapServiceRequest::validate(const MapParams& params) const {
  if (sequence.empty()) {
    throw ServiceError(ServiceErrorCode::kInvalidArgument, "sequence",
                       "query sequence must not be empty");
  }
  if (top_x < 1) {
    throw ServiceError(ServiceErrorCode::kInvalidArgument, "top_x",
                       "top_x must be >= 1");
  }
  if (deadline.count() < 0) {
    throw ServiceError(ServiceErrorCode::kInvalidArgument, "deadline_ms",
                       "deadline must be >= 0");
  }
  // Same contract as MapRequest::min_votes: the sketch table cannot recover
  // hits below the threshold it was built to report.
  if (min_votes && *min_votes < params.min_votes) {
    throw ServiceError(
        ServiceErrorCode::kInvalidArgument, "min_votes",
        "override " + std::to_string(*min_votes) +
            " is below the configured MapParams::min_votes floor " +
            std::to_string(params.min_votes));
  }
}

// --- MappingService ---------------------------------------------------------

MappingService::MappingService(io::SequenceSet subjects, ServiceConfig config)
    : subjects_(std::make_unique<io::SequenceSet>(std::move(subjects))),
      config_(config) {
  config_.params.validate();
  engine_ = std::make_unique<MappingEngine>(*subjects_, config_.params,
                                            config_.scheme);
}

MappingService::MappingService(io::SequenceSet subjects, ServiceConfig config,
                               SketchTable table)
    : subjects_(std::make_unique<io::SequenceSet>(std::move(subjects))),
      config_(config) {
  config_.params.validate();
  engine_ = std::make_unique<MappingEngine>(*subjects_, config_.params,
                                            config_.scheme, std::move(table));
}

MappingService MappingService::from_index(const std::string& index_path,
                                          io::SequenceSet subjects,
                                          ServiceConfig config) {
  // Load against a stable copy of the subject set first: the artifact's
  // SUBJSET digest binds it to these exact sequences.
  io::SequenceSet owned = std::move(subjects);
  try {
    SketchTable table =
        load_index(index_path, config.params, config.scheme, owned);
    MappingService service(std::move(owned), config, std::move(table));
    service.load_report_.loaded_from_artifact = true;
    return service;
  } catch (const io::ArtifactError& error) {
    // Never fatal: record why and rebuild from the subject sequences.
    MappingService service(std::move(owned), config);
    service.load_report_.rejection = error.what();
    return service;
  }
}

MapServiceResponse MappingService::map(const MapServiceRequest& request) const {
  MapScratch scratch = make_scratch();
  return map(request, scratch);
}

MapServiceResponse MappingService::map(
    const MapServiceRequest& request, MapScratch& scratch,
    std::optional<Clock::time_point> deadline) const {
  if (!deadline && request.deadline.count() > 0) {
    deadline = Clock::now() + request.deadline;
  }
  request.validate(config_.params);

  MapServiceResponse response;
  response.trials = static_cast<std::uint32_t>(config_.params.trials);

  // Deadline check before the (uninterruptible) map kernel runs: expiry is
  // a contained, structured failure, never a stall.
  if (deadline && Clock::now() >= *deadline) {
    response.failure = ServiceFailure{
        ServiceErrorCode::kDeadlineExceeded,
        "deadline expired before mapping started"};
    return response;
  }

  const JemMapper& mapper = engine_->mapper();
  const auto add_hit = [&](const MapResult& result) {
    MapServiceHit hit;
    hit.subject = result.subject;
    hit.subject_name = std::string(subjects_->name(result.subject));
    hit.votes = result.votes;
    response.hits.push_back(std::move(hit));
  };

  if (request.top_x == 1) {
    // The single-hit path IS map_segment — the bit-identicality anchor the
    // serve layer's golden tests pin.
    const MapResult result = mapper.map_segment(request.sequence, scratch);
    if (result.mapped() &&
        (!request.min_votes || result.votes >= *request.min_votes)) {
      add_hit(result);
    }
  } else {
    std::vector<MapResult> hits =
        mapper.map_segment_topx(request.sequence, request.top_x, scratch);
    // Hits are votes-descending: a min_votes override trims a suffix.
    if (request.min_votes) {
      while (!hits.empty() && hits.back().votes < *request.min_votes) {
        hits.pop_back();
      }
    }
    for (const MapResult& hit : hits) add_hit(hit);
  }
  return response;
}

}  // namespace jem::core
