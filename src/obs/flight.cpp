#include "obs/flight.hpp"

#include <cstdio>
#include <cstring>

#include "util/atomic_file.hpp"
#include "util/crc32.hpp"
#include "util/fault.hpp"

namespace odq::obs {

using util::Status;
using util::StatusCode;
using util::StatusOr;

namespace {

// "DOQF" + version + payload + CRC32(payload). Little-endian fixed-width
// scalars (the same assumption the v3 checkpoint writer makes).
constexpr char kMagic[4] = {'D', 'O', 'Q', 'F'};
constexpr std::uint32_t kVersion = 1;

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_i64(std::string& out, std::int64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_f32(std::string& out, float v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void put_accum(std::string& out, const ErrorAccum& a) {
  put_i64(out, a.count);
  put_f64(out, a.ref_sq);
  put_f64(out, a.out_sq);
  put_f64(out, a.dot);
  put_f64(out, a.err_sq);
  put_f64(out, a.err_abs);
  put_f64(out, a.err_max);
}

// Bounds-checked read cursor: every get_* reports corruption instead of
// walking off the end of a truncated dump.
struct Cursor {
  const char* p;
  std::size_t left;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || left < n) {
      ok = false;
      return false;
    }
    std::memcpy(dst, p, n);
    p += n;
    left -= n;
    return true;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  float f32() {
    float v = 0;
    take(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!ok || left < n) {
      ok = false;
      return {};
    }
    std::string s(p, n);
    p += n;
    left -= n;
    return s;
  }
  ErrorAccum accum() {
    ErrorAccum a;
    a.count = i64();
    a.ref_sq = f64();
    a.out_sq = f64();
    a.dot = f64();
    a.err_sq = f64();
    a.err_abs = f64();
    a.err_max = f64();
    return a;
  }
};

void serialize_record(std::string& out, const FlightRecord& rec) {
  put_u64(out, rec.request_id);
  put_str(out, rec.reason);
  put_i64(out, rec.layer);
  put_f64(out, rec.distance);
  put_f64(out, rec.sens_delta);
  const tensor::Shape& sh = rec.input.shape();
  put_u32(out, static_cast<std::uint32_t>(sh.rank()));
  for (std::size_t d = 0; d < sh.rank(); ++d) put_i64(out, sh[d]);
  out.append(reinterpret_cast<const char*>(rec.input.data()),
             static_cast<std::size_t>(rec.input.numel()) * sizeof(float));
  put_u32(out, static_cast<std::uint32_t>(rec.layers.size()));
  for (const FidelityLayerSnapshot& s : rec.layers) {
    put_str(out, s.scheme);
    put_i64(out, s.layer);
    put_i64(out, s.calls);
    put_f32(out, s.threshold);
    put_accum(out, s.total);
    put_accum(out, s.predictor);
    put_accum(out, s.sensitive);
    put_accum(out, s.insensitive);
    put_f64(out, s.hist_lo);
    put_f64(out, s.hist_hi);
    put_u32(out, static_cast<std::uint32_t>(s.hist.size()));
    for (std::uint64_t c : s.hist) put_u64(out, c);
  }
}

bool parse_record(Cursor& c, FlightRecord& rec) {
  rec.request_id = c.u64();
  rec.reason = c.str();
  rec.layer = static_cast<int>(c.i64());
  rec.distance = c.f64();
  rec.sens_delta = c.f64();
  const std::uint32_t rank = c.u32();
  if (!c.ok || rank > 8) return false;
  std::vector<std::int64_t> dims(rank);
  std::int64_t numel = 1;
  for (std::uint32_t d = 0; d < rank; ++d) {
    dims[d] = c.i64();
    if (!c.ok || dims[d] <= 0 || dims[d] > (1 << 24)) return false;
    numel *= dims[d];
  }
  if (numel < 0 ||
      c.left < static_cast<std::size_t>(numel) * sizeof(float)) {
    return false;
  }
  std::vector<float> data(static_cast<std::size_t>(numel));
  if (!c.take(data.data(), data.size() * sizeof(float))) return false;
  rec.input = tensor::Tensor(tensor::Shape(std::move(dims)), std::move(data));
  const std::uint32_t nlayers = c.u32();
  if (!c.ok || nlayers > 4096) return false;
  rec.layers.resize(nlayers);
  for (std::uint32_t l = 0; l < nlayers; ++l) {
    FidelityLayerSnapshot& s = rec.layers[l];
    s.scheme = c.str();
    s.layer = static_cast<int>(c.i64());
    s.calls = c.i64();
    s.threshold = c.f32();
    s.total = c.accum();
    s.predictor = c.accum();
    s.sensitive = c.accum();
    s.insensitive = c.accum();
    s.hist_lo = c.f64();
    s.hist_hi = c.f64();
    const std::uint32_t nbins = c.u32();
    if (!c.ok || nbins > 65536) return false;
    s.hist.resize(nbins);
    for (std::uint32_t b = 0; b < nbins; ++b) s.hist[b] = c.u64();
  }
  return c.ok;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::set_context(FlightContext ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  context_ = std::move(ctx);
}

void FlightRecorder::record(FlightRecord rec) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
    return;
  }
  ring_[head_] = std::move(rec);
  head_ = (head_ + 1) % capacity_;
}

std::vector<FlightRecord> FlightRecorder::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

util::Status FlightRecorder::dump(const std::string& path) const {
  std::string file(kMagic, sizeof kMagic);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    put_u32(file, kVersion);
    put_str(file, context_.model);
    put_str(file, context_.scheme);
    put_str(file, context_.checkpoint);
    put_i64(file, context_.width);
    put_f32(file, context_.threshold);
    put_u32(file, static_cast<std::uint32_t>(ring_.size()));
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      serialize_record(file, ring_[(head_ + i) % ring_.size()]);
    }
  }
  put_u32(file, util::crc32(file.data() + sizeof kMagic,
                            file.size() - sizeof kMagic));
  if (util::fault_fire("flight.dump")) {
    return Status(StatusCode::kIoError, "injected flight.dump fault");
  }
  const Status st = util::write_file_atomic(path, file);
  return st.ok() ? st : Status(st.code(), "flight dump: " + st.message());
}

StatusOr<FlightDump> FlightRecorder::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(StatusCode::kNotFound, "flight dump: cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return Status(StatusCode::kIoError, "flight dump: read error on " + path);
  }
  if (bytes.size() < sizeof kMagic + sizeof(std::uint32_t) * 2 ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    return Status(StatusCode::kCorruption,
                  "flight dump: bad magic or truncated header in " + path);
  }
  const std::size_t payload_size =
      bytes.size() - sizeof kMagic - sizeof(std::uint32_t);
  const char* payload = bytes.data() + sizeof kMagic;
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof stored_crc,
              sizeof stored_crc);
  if (util::crc32(payload, payload_size) != stored_crc) {
    return Status(StatusCode::kCorruption,
                  "flight dump: CRC mismatch in " + path);
  }

  Cursor c{payload, payload_size};
  FlightDump dump;
  const std::uint32_t version = c.u32();
  if (!c.ok || version != kVersion) {
    return Status(StatusCode::kCorruption,
                  "flight dump: unsupported version in " + path);
  }
  dump.context.model = c.str();
  dump.context.scheme = c.str();
  dump.context.checkpoint = c.str();
  dump.context.width = c.i64();
  dump.context.threshold = c.f32();
  const std::uint32_t nrecords = c.u32();
  if (!c.ok || nrecords > 65536) {
    return Status(StatusCode::kCorruption,
                  "flight dump: implausible record count in " + path);
  }
  dump.records.resize(nrecords);
  for (std::uint32_t i = 0; i < nrecords; ++i) {
    if (!parse_record(c, dump.records[i])) {
      return Status(StatusCode::kCorruption,
                    "flight dump: malformed record " + std::to_string(i) +
                        " in " + path);
    }
  }
  if (c.left != 0) {
    return Status(StatusCode::kCorruption,
                  "flight dump: trailing bytes in " + path);
  }
  return dump;
}

}  // namespace odq::obs
