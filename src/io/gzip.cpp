#include "io/gzip.hpp"

#include <zlib.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace jem::io {

std::string_view gzip_reason_name(GzipReason reason) noexcept {
  switch (reason) {
    case GzipReason::kInitFailed: return "init-failed";
    case GzipReason::kTruncated: return "truncated";
    case GzipReason::kBadData: return "bad-data";
    case GzipReason::kBadCrc: return "bad-crc";
    case GzipReason::kBadLength: return "bad-length";
    case GzipReason::kTrailingGarbage: return "trailing-garbage";
  }
  return "unknown";
}

bool is_gzip(std::string_view data) noexcept {
  return data.size() >= 2 && static_cast<unsigned char>(data[0]) == 0x1f &&
         static_cast<unsigned char>(data[1]) == 0x8b;
}

namespace {

/// zlib reports trailer failures as Z_DATA_ERROR with a fixed msg string —
/// the only channel that distinguishes a corrupt deflate block from a
/// CRC32 or ISIZE mismatch in the member trailer.
GzipReason classify_data_error(const char* msg) noexcept {
  const std::string_view text = msg == nullptr ? "" : msg;
  if (text == "incorrect data check") return GzipReason::kBadCrc;
  if (text == "incorrect length check") return GzipReason::kBadLength;
  return GzipReason::kBadData;
}

// Output bytes per inflate step. Errors are classified after each step, so
// the step size is part of which GzipReason an input gets: it stays the
// 64 KiB the decoder has always used.
constexpr std::size_t kStep = std::size_t{1} << 16;
// Output reserved for a member decoded into its own buffer, per input byte
// up to the candidate start after the next one (the next may be a false
// candidate inside the member). It is above the usual gzip ratio, so the
// buffer is allocated once instead of grown through a chain of copies that
// would raise the peak memory; it is bounded by the input, never by a
// trailer's claim, and pages that are never written are never touched.
constexpr std::size_t kReserveRatio = 8;

/// How inflating one member ended.
struct Member {
  bool ended = false;
  std::size_t in_end = 0;                    // input offset past the member
  GzipReason reason = GzipReason::kBadData;  // !ended
  std::string detail;                        // !ended
};

Member failed(GzipReason reason, std::string detail) {
  return {false, 0, reason, std::move(detail)};
}

/// One zlib inflate state, reset for each member it decodes.
class Inflater {
 public:
  Inflater() {
    // 15 window bits + 16 selects gzip decoding (zlib then verifies each
    // member's CRC32 + ISIZE trailer against the inflated bytes).
    if (inflateInit2(&stream_, 15 + 16) != Z_OK) {
      throw GzipError(GzipReason::kInitFailed, "inflateInit2 failed");
    }
  }
  Inflater(const Inflater&) = delete;
  Inflater& operator=(const Inflater&) = delete;
  ~Inflater() { inflateEnd(&stream_); }

  /// The one member-decode routine: inflates the member at `data[in]` and
  /// appends its bytes to `out`, which grows as the member does. Input is
  /// fed in slices zlib's 32-bit counters can hold.
  Member decode(std::string_view data, std::size_t in, std::string& out) {
    if (inflateReset(&stream_) != Z_OK) {
      return failed(GzipReason::kInitFailed, "inflateReset failed");
    }
    int rc = Z_OK;
    while (rc != Z_STREAM_END) {
      const std::size_t at = out.size();
      out.resize(at + kStep);
      stream_.next_out = reinterpret_cast<Bytef*>(out.data() + at);
      stream_.avail_out = static_cast<uInt>(kStep);
      for (;;) {
        const std::size_t slice = std::min<std::size_t>(
            data.size() - in, std::numeric_limits<uInt>::max());
        stream_.next_in =
            reinterpret_cast<Bytef*>(const_cast<char*>(data.data() + in));
        stream_.avail_in = static_cast<uInt>(slice);
        rc = inflate(&stream_, Z_NO_FLUSH);
        in += slice - stream_.avail_in;
        if (rc != Z_OK || stream_.avail_out == 0 || in == data.size()) break;
        // Otherwise a 4 GiB input slice ran out mid-step: feed the next one.
      }
      out.resize(at + kStep - stream_.avail_out);
      if (rc == Z_DATA_ERROR) {
        return failed(classify_data_error(stream_.msg),
                      stream_.msg != nullptr ? stream_.msg
                                             : "corrupt deflate stream");
      }
      if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
        return failed(GzipReason::kBadData,
                      "inflate rc=" + std::to_string(rc));
      }
      // All input consumed without reaching the member's end: the file was
      // cut off mid-member (a crash or partial download).
      if (rc != Z_STREAM_END && in == data.size()) {
        return failed(GzipReason::kTruncated,
                      "input ends mid-member after " +
                          std::to_string(out.size()) + " bytes of output");
      }
    }
    Member ended;
    ended.ended = true;
    ended.in_end = in;
    return ended;
  }

 private:
  z_stream stream_{};
};

/// Offsets that may start a member: `1f 8b 08` (gzip magic, deflate) with
/// the reserved FLG bits zero — every member zlib accepts starts so.
std::vector<std::size_t> header_candidates(std::string_view data) {
  constexpr std::string_view kMagic("\x1f\x8b\x08", 3);
  std::vector<std::size_t> starts;
  for (std::size_t at = data.find(kMagic); at != std::string_view::npos;
       at = data.find(kMagic, at + 1)) {
    if (at + 3 < data.size() &&
        (static_cast<unsigned char>(data[at + 3]) & 0xe0) == 0) {
      starts.push_back(at);
    }
  }
  return starts;
}

}  // namespace

std::string gzip_decompress(std::string_view data) {
  // Speculate: decode from every candidate member start in parallel, each
  // into its own buffer. A candidate that is really a byte run inside some
  // member only costs a wasted decode; one input never spawns a thread.
  const std::vector<std::size_t> starts = header_candidates(data);
  const std::size_t n = starts.size();
  std::vector<Member> speculative(n);
  std::vector<std::string> pieces(n);
  if (n > 1) {
    util::ThreadPool pool(std::min(n, util::default_threads(0)));
    util::parallel_for_blocks(
        pool, 0, n, n, [&](std::size_t, std::size_t j, std::size_t) {
          // A member left undone here (say, out of memory) is decoded
          // again by the stitch, which reports any failure that persists.
          try {
            const std::size_t end = j + 2 < n ? starts[j + 2] : data.size();
            pieces[j].reserve(kReserveRatio * (end - starts[j]));
            Inflater inflater;
            speculative[j] = inflater.decode(data, starts[j], pieces[j]);
          } catch (...) {
            speculative[j] = Member{};
          }
          if (!speculative[j].ended) std::string().swap(pieces[j]);
        });
  }

  // Stitch: walk the real member chain from offset 0. A member whose
  // speculative decode ended cleanly is appended as it is; any other member
  // is decoded again here, in order, so output and errors are those of a
  // serial decode.
  std::string out;
  std::size_t decoded = 0;
  for (const std::string& piece : pieces) decoded += piece.size();
  out.reserve(decoded);
  Inflater inflater;
  std::size_t in = 0;
  std::size_t next = 0;  // first candidate at or past `in`
  for (;;) {
    while (next < n && starts[next] < in) std::string().swap(pieces[next++]);
    Member member;
    if (next < n && starts[next] == in && speculative[next].ended) {
      member = std::move(speculative[next]);
      out += pieces[next];
      std::string().swap(pieces[next]);
    } else {
      member = inflater.decode(data, in, out);
      if (!member.ended) throw GzipError(member.reason, member.detail);
    }
    in = member.in_end;
    if (in == data.size()) break;  // clean end of the last member
    if (!is_gzip(data.substr(in))) {
      throw GzipError(GzipReason::kTrailingGarbage,
                      std::to_string(data.size() - in) +
                          " bytes after the final gzip member");
    }
  }

  obs::Registry& registry = obs::default_registry();
  registry.counter("io.gzip.streams").add(1);
  registry.counter("io.gzip.in_bytes", obs::Unit::kBytes).add(data.size());
  registry.counter("io.gzip.out_bytes", obs::Unit::kBytes).add(out.size());
  return out;
}

std::string gzip_compress(std::string_view data, int level) {
  z_stream stream{};
  if (deflateInit2(&stream, level, Z_DEFLATED, 15 + 16, 8,
                   Z_DEFAULT_STRATEGY) != Z_OK) {
    throw std::runtime_error("gzip: deflateInit2 failed");
  }

  std::string out;
  std::string buffer(1 << 16, '\0');
  // Input goes in slices zlib's 32-bit avail_in can hold; the last one
  // finishes the stream.
  for (std::size_t in = 0;;) {
    const std::size_t slice = std::min<std::size_t>(
        data.size() - in, std::numeric_limits<uInt>::max());
    const int flush = in + slice == data.size() ? Z_FINISH : Z_NO_FLUSH;
    stream.next_in =
        reinterpret_cast<Bytef*>(const_cast<char*>(data.data() + in));
    stream.avail_in = static_cast<uInt>(slice);
    int rc = Z_OK;
    do {
      stream.next_out = reinterpret_cast<Bytef*>(buffer.data());
      stream.avail_out = static_cast<uInt>(buffer.size());
      rc = deflate(&stream, flush);
      if (rc == Z_STREAM_ERROR) {
        deflateEnd(&stream);
        throw std::runtime_error("gzip: deflate failed");
      }
      out.append(buffer.data(), buffer.size() - stream.avail_out);
    } while (flush == Z_FINISH ? rc != Z_STREAM_END
                               : stream.avail_in != 0 ||
                                     stream.avail_out == 0);
    if (flush == Z_FINISH) break;
    in += slice;
  }

  deflateEnd(&stream);
  return out;
}

std::string read_file_auto(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::ostringstream raw;
  raw << in.rdbuf();
  std::string data = std::move(raw).str();
  obs::Registry& registry = obs::default_registry();
  registry.counter("io.file.reads").add(1);
  registry.counter("io.file.bytes", obs::Unit::kBytes).add(data.size());
  if (is_gzip(data)) return gzip_decompress(data);
  return data;
}

}  // namespace jem::io
