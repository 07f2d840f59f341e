#include "io/gzip.hpp"

#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <vector>

#include "io/inflate.hpp"
#include "obs/metrics.hpp"
#include "util/huge_pages.hpp"
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
// A trailer sizes an output slot only if its ISIZE claims at most this many
// output bytes per compressed byte since the previous accepted boundary.
// FASTQ members inflate ~4-7x; a member compressed past the cap is decoded
// by the stitch instead. The slots then add up to at most 16x the input,
// whatever the trailers claim.
constexpr std::size_t kIsizeCap = 16;
// Its 10-byte header and 8-byte trailer: no member is shorter.
constexpr std::size_t kMinMember = 18;
// Read size for a file whose size is unknown (a pipe).
constexpr std::size_t kReadChunk = std::size_t{1} << 20;

/// Where one member goes, as the trailers lay the output out: the input
/// [in_begin, in_end) inflates to the output [out_begin, out_begin + size).
struct Slot {
  std::size_t in_begin = 0;
  std::size_t in_end = 0;
  std::size_t out_begin = 0;
  std::size_t size = 0;
  bool placed = false;  // inflated exactly into its place
};

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

  /// The stitch's member decoder: inflates the member at `data[in]` and
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

/// The little-endian 32-bit ISIZE that ends at `data[end]`.
std::size_t isize_before(std::string_view data, std::size_t end) noexcept {
  std::size_t isize = 0;
  for (std::size_t i = 1; i <= 4; ++i) {
    isize = isize << 8 | static_cast<unsigned char>(data[end - i]);
  }
  return isize;
}

/// Lays the output out from the member trailers. Walking the candidates
/// left to right, one becomes a boundary only if the four bytes before it
/// are a plausible ISIZE for a member ending there; the last member's
/// ISIZE is the input's last four bytes. A member the rule cannot size
/// gets no slot, and the slots then end before the input does.
std::vector<Slot> layout(std::string_view data) {
  std::vector<Slot> slots;
  const std::vector<std::size_t> starts = header_candidates(data);
  if (starts.empty() || starts.front() != 0) return slots;
  std::size_t begin = 0;
  std::size_t out = 0;
  const auto close = [&](std::size_t end) {
    if (end - begin < kMinMember) return;
    const std::size_t size = isize_before(data, end);
    if (size > kIsizeCap * (end - begin)) return;
    slots.push_back({begin, end, out, size});
    begin = end;
    out += size;
  };
  for (std::size_t k = 1; k < starts.size(); ++k) close(starts[k]);
  close(data.size());
  return slots;
}

/// Walks the real member chain from offset 0, as a serial decode does. A
/// member whose slot was placed is copied from `laid`; any other member is
/// decoded again here, in order, so output and errors are those of the
/// serial decoder.
std::string stitch(std::string_view data, const std::vector<Slot>& slots,
                   std::string_view laid) {
  obs::Registry& registry = obs::default_registry();
  obs::Counter& serial_members = registry.counter("io.gzip.serial_members");
  obs::Counter& copied_bytes =
      registry.counter("io.gzip.copied_bytes", obs::Unit::kBytes);
  std::string out;
  std::size_t placed = 0;
  for (const Slot& slot : slots) placed += slot.placed ? slot.size : 0;
  out.reserve(placed);
  Inflater inflater;
  std::size_t in = 0;
  std::size_t next = 0;  // first slot at or past `in`
  for (;;) {
    while (next < slots.size() && slots[next].in_begin < in) ++next;
    if (next < slots.size() && slots[next].in_begin == in &&
        slots[next].placed) {
      const Slot& slot = slots[next];
      out.append(laid.substr(slot.out_begin, slot.size));
      copied_bytes.add(slot.size);
      in = slot.in_end;
    } else {
      serial_members.add(1);
      const Member member = inflater.decode(data, in, out);
      if (!member.ended) throw GzipError(member.reason, member.detail);
      in = member.in_end;
    }
    if (in == data.size()) break;  // clean end of the last member
    if (!is_gzip(data.substr(in))) {
      throw GzipError(GzipReason::kTrailingGarbage,
                      std::to_string(data.size() - in) +
                          " bytes after the final gzip member");
    }
  }
  return out;
}

}  // namespace

std::string gzip_decompress(std::string_view data) {
  obs::Registry& registry = obs::default_registry();
  // The stitch's counters, listed at 0 when every member lands in its slot.
  registry.counter("io.gzip.serial_members").add(0);
  registry.counter("io.gzip.copied_bytes", obs::Unit::kBytes).add(0);

  // One output buffer, laid out from the trailers, each member inflated
  // straight into its slot: one pool task per slot, or the calling thread
  // for a single member. Nothing writes the buffer before the inflaters do,
  // so each one first-touches its own slot, on huge pages where the kernel
  // grants them.
  std::vector<Slot> slots = layout(data);
  const std::size_t total =
      slots.empty() ? 0 : slots.back().out_begin + slots.back().size;
  std::string out;
  out.reserve(total);
  util::hint_huge_pages(out.data(), total);
  {
    std::optional<util::ThreadPool> pool;
    if (slots.size() > 1) {
      pool.emplace(std::min(slots.size(), util::default_threads(0)));
    }
    // The operation must not throw. A slot left unplaced (a member the
    // decoder declines or cannot decode, or a pool that could not start) is
    // decoded again with zlib by the stitch, which reports any failure that
    // persists; the stitch copies only placed slots, so the bytes of an
    // unplaced one are never read.
    out.resize_and_overwrite(total, [&](char* buffer, std::size_t size) {
      try {
        util::parallel_for_each(
            pool ? &*pool : nullptr, slots.size(), [&](std::size_t j) {
              Slot& slot = slots[j];
              slot.placed = inflate_member(
                  data.substr(slot.in_begin, slot.in_end - slot.in_begin),
                  buffer + slot.out_begin, slot.size);
            });
      } catch (...) {
      }
      return size;
    });
  }

  // Every slot placed, up to the input's end: the members chain through
  // the slots, and the buffer is the output. Otherwise the stitch rebuilds
  // it: a false boundary, a member compressed past the cap, an ISIZE that
  // wrapped at 4 GiB, or corrupt data.
  const bool laid_out =
      !slots.empty() && slots.back().in_end == data.size() &&
      std::all_of(slots.begin(), slots.end(),
                  [](const Slot& slot) { return slot.placed; });
  if (!laid_out) out = stitch(data, slots, out);

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
  // A file of known size is one read, which asks for a byte more than the
  // size so that it meets the end of the file. A pipe (process substitution
  // such as `<(zcat reads.fq.gz)`) has no size and streams in chunks.
  std::error_code no_size;
  const std::uintmax_t size = std::filesystem::file_size(path, no_size);
  std::size_t want =
      no_size ? kReadChunk : static_cast<std::size_t>(size) + 1;
  // Each chunk is read straight into the string's new tail, which nothing
  // writes first. The stream throws nothing (its exception mask is empty),
  // as resize_and_overwrite requires.
  std::string data;
  for (;;) {
    const std::size_t at = data.size();
    data.resize_and_overwrite(at + want, [&](char* buffer, std::size_t) {
      in.read(buffer + at, static_cast<std::streamsize>(want));
      return at + static_cast<std::size_t>(in.gcount());
    });
    if (!in) break;
    want = kReadChunk;
  }
  if (in.bad()) throw std::runtime_error("cannot read file: " + path);
  obs::Registry& registry = obs::default_registry();
  registry.counter("io.file.reads").add(1);
  registry.counter("io.file.bytes", obs::Unit::kBytes).add(data.size());
  if (is_gzip(data)) return gzip_decompress(data);
  return data;
}

}  // namespace jem::io
