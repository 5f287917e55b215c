#include "runtime/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "core/bitstream.hpp"
#include "runtime/wire.hpp"
#include "util/strings.hpp"

namespace stt {

namespace {

// 8-byte file magic; the trailing digit is the format version. Version 2
// trial records dropped the legacy selection-algorithm byte, so a version-1
// store fails the magic check instead of misdecoding.
constexpr char kMagic[] = "STTSTOR2";
constexpr std::size_t kMagicLen = 8;

constexpr std::uint8_t kRecSpec = 0;
constexpr std::uint8_t kRecTrial = 1;
constexpr std::uint8_t kRecStage = 2;

// type + u32 len + u32 crc
constexpr std::size_t kFrameHeader = 1 + 4 + 4;

// Refuse to decode absurd frames: no record in a sane campaign comes close,
// and a bogus length from a corrupt header must not drive a huge read.
constexpr std::uint32_t kMaxPayload = 64u << 20;

[[noreturn]] void throw_errno(const std::string& what,
                              const std::string& path) {
  throw std::runtime_error(what + " '" + path +
                           "': " + std::strerror(errno));
}

void write_all(int fd, const char* data, std::size_t n,
               const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("store: write failed on", path);
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

std::uint32_t read_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void put_u32le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void encode_trial_key(WireWriter& w, const TrialKey& key) {
  w.str(key.benchmark);
  w.str(key.defense);
  w.str(key.defense_tuning);
  w.str(key.attack);
  w.i32(key.trial);
}

TrialKey decode_trial_key(WireReader& r) {
  TrialKey key;
  key.benchmark = r.str();
  key.defense = r.str();
  key.defense_tuning = r.str();
  key.attack = r.str();
  key.trial = r.i32();
  return key;
}

}  // namespace

void encode_campaign_grid(WireWriter& w, const CampaignGrid& grid) {
  w.u64(grid.master_seed);
  w.i32(grid.trials);
  w.i32(grid.max_attempts);
  w.b(grid.lint);
  w.f64(grid.activity);
  w.f64(grid.timing_margin);
  w.u32(static_cast<std::uint32_t>(grid.benchmarks.size()));
  for (const std::string& b : grid.benchmarks) w.str(b);
  w.u32(static_cast<std::uint32_t>(grid.defenses.size()));
  for (const DefenseAxis& d : grid.defenses) {
    w.str(d.kind);
    w.u32(static_cast<std::uint32_t>(d.tuning.size()));
    for (const auto& [k, v] : d.tuning) {
      w.str(k);
      w.str(v);
    }
  }
  w.u32(static_cast<std::uint32_t>(grid.attacks.size()));
  for (const std::string& a : grid.attacks) w.str(a);
}

CampaignGrid decode_campaign_grid(WireReader& r) {
  CampaignGrid grid;
  grid.master_seed = r.u64();
  grid.trials = r.i32();
  grid.max_attempts = r.i32();
  grid.lint = r.b();
  grid.activity = r.f64();
  grid.timing_margin = r.f64();
  for (std::uint32_t n = r.u32(); n > 0; --n) grid.benchmarks.push_back(r.str());
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    DefenseAxis axis;
    axis.kind = r.str();
    for (std::uint32_t m = r.u32(); m > 0; --m) {
      std::string k = r.str();
      std::string v = r.str();
      axis.tuning.emplace_back(std::move(k), std::move(v));
    }
    grid.defenses.push_back(std::move(axis));
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) grid.attacks.push_back(r.str());
  return grid;
}

std::string campaign_grid_bytes(const CampaignGrid& grid) {
  WireWriter w;
  encode_campaign_grid(w, grid);
  return w.take();
}

void encode_metrics_snapshot(WireWriter& w, const obs::MetricsSnapshot& snap) {
  w.u32(static_cast<std::uint32_t>(snap.counters.size()));
  for (const auto& [name, v] : snap.counters) {
    w.str(name);
    w.u64(v);
  }
  w.u32(static_cast<std::uint32_t>(snap.gauges.size()));
  for (const auto& [name, v] : snap.gauges) {
    w.str(name);
    w.i64(v);
  }
  w.u32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.str(name);
    w.u64(h.count);
    w.u64(h.sum);
    // Trim trailing zero buckets; the bucket count bounds the loop below.
    int last = -1;
    for (int b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
      if (h.buckets[b] != 0) last = b;
    }
    w.u32(static_cast<std::uint32_t>(last + 1));
    for (int b = 0; b <= last; ++b) w.u64(h.buckets[b]);
  }
}

obs::MetricsSnapshot decode_metrics_snapshot(WireReader& r) {
  obs::MetricsSnapshot snap;
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string name = r.str();
    snap.counters[std::move(name)] = r.u64();
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string name = r.str();
    snap.gauges[std::move(name)] = r.i64();
  }
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    std::string name = r.str();
    obs::HistogramSnapshot h;
    h.count = r.u64();
    h.sum = r.u64();
    const std::uint32_t buckets = r.u32();
    if (buckets > obs::HistogramSnapshot::kBuckets) {
      throw std::runtime_error("store: histogram bucket count out of range");
    }
    for (std::uint32_t b = 0; b < buckets; ++b) h.buckets[b] = r.u64();
    snap.histograms[std::move(name)] = h;
  }
  return snap;
}

std::unique_ptr<ResultStore> ResultStore::create(
    const std::string& path, const std::string& spec_bytes) {
  return open_impl(path, &spec_bytes, /*create_only=*/true,
                   /*read_only=*/false);
}

std::unique_ptr<ResultStore> ResultStore::open(const std::string& path,
                                               const std::string& spec_bytes) {
  return open_impl(path, &spec_bytes, /*create_only=*/false,
                   /*read_only=*/false);
}

std::unique_ptr<ResultStore> ResultStore::open_existing(
    const std::string& path) {
  return open_impl(path, nullptr, /*create_only=*/false, /*read_only=*/true);
}

std::unique_ptr<ResultStore> ResultStore::open_impl(
    const std::string& path, const std::string* spec_bytes, bool create_only,
    bool read_only) {
  std::unique_ptr<ResultStore> store(new ResultStore);
  store->path_ = path;

  int flags = read_only ? O_RDONLY : O_RDWR;
  bool fresh = false;
  if (create_only) {
    // O_EXCL makes "refuse to clobber" atomic: an existing store (from an
    // earlier run) requires an explicit --resume.
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
    if (fd < 0) {
      if (errno == EEXIST) {
        throw std::runtime_error("store: '" + path +
                                 "' already exists; pass --resume to append "
                                 "to it or choose a new path");
      }
      throw_errno("store: cannot create", path);
    }
    store->fd_ = fd;
    fresh = true;
  } else {
    int fd = ::open(path.c_str(), flags);
    if (fd < 0 && errno == ENOENT && !read_only) {
      // --resume against a not-yet-existing store starts one, so the first
      // run of a kill/resume loop needs no special-case flag.
      fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
      fresh = true;
    }
    if (fd < 0) throw_errno("store: cannot open", path);
    store->fd_ = fd;
  }

  if (fresh) {
    write_all(store->fd_, kMagic, kMagicLen, path);
    store->spec_bytes_ = *spec_bytes;
    store->append_frame(kRecSpec, store->spec_bytes_);
  } else {
    // Slurp and scan: whole records accumulate into the maps; the first
    // malformed frame ends the scan and (when writable) is truncated away
    // together with everything after it.
    std::string data;
    {
      struct stat st{};
      if (::fstat(store->fd_, &st) != 0) throw_errno("store: stat", path);
      data.resize(static_cast<std::size_t>(st.st_size));
      std::size_t got = 0;
      while (got < data.size()) {
        const ssize_t r =
            ::read(store->fd_, data.data() + got, data.size() - got);
        if (r < 0) {
          if (errno == EINTR) continue;
          throw_errno("store: read failed on", path);
        }
        if (r == 0) break;
        got += static_cast<std::size_t>(r);
      }
      data.resize(got);
    }
    if (data.size() < kMagicLen ||
        std::memcmp(data.data(), kMagic, kMagicLen) != 0) {
      throw std::runtime_error("store: '" + path +
                               "' is not a campaign result store (bad magic)");
    }
    std::size_t pos = kMagicLen;
    bool have_spec = false;
    std::string note;
    while (pos < data.size()) {
      if (data.size() - pos < kFrameHeader) {
        note = strformat("torn frame header at byte %zu", pos);
        break;
      }
      const std::uint8_t type = static_cast<std::uint8_t>(data[pos]);
      const std::uint32_t len = read_u32le(data.data() + pos + 1);
      const std::uint32_t crc = read_u32le(data.data() + pos + 5);
      if (len > kMaxPayload) {
        note = strformat("implausible frame length %u at byte %zu",
                         static_cast<unsigned>(len), pos);
        break;
      }
      if (data.size() - pos - kFrameHeader < len) {
        note = strformat("torn frame payload at byte %zu", pos);
        break;
      }
      const std::string_view payload(data.data() + pos + kFrameHeader, len);
      if (crc32(payload) != crc) {
        note = strformat("checksum mismatch at byte %zu", pos);
        break;
      }
      try {
        WireReader r(payload);
        if (type == kRecSpec) {
          if (have_spec) throw std::runtime_error("duplicate spec record");
          store->spec_bytes_ = std::string(payload);
          have_spec = true;
        } else if (type == kRecTrial) {
          if (!have_spec) throw std::runtime_error("trial before spec");
          TrialKey key = decode_trial_key(r);
          StoredTrial t;
          t.record = decode_trial_record(r);
          t.obs_delta = decode_metrics_snapshot(r);
          if (!r.done()) throw std::runtime_error("trailing payload bytes");
          // Keep-first: a duplicate can only be a byte-identical re-append
          // from an interrupted resume (appends are key-deduplicated).
          store->trials_.emplace(std::move(key), std::move(t));
        } else if (type == kRecStage) {
          if (!have_spec) throw std::runtime_error("stage before spec");
          std::string key = r.str();
          obs::MetricsSnapshot delta = decode_metrics_snapshot(r);
          if (!r.done()) throw std::runtime_error("trailing payload bytes");
          store->stages_.emplace(std::move(key), std::move(delta));
        } else {
          throw std::runtime_error(
              strformat("unknown record type %u", static_cast<unsigned>(type)));
        }
      } catch (const std::exception& e) {
        note = strformat("undecodable frame at byte %zu (%s)", pos, e.what());
        break;
      }
      pos += kFrameHeader + len;
    }
    store->open_stats_.trials = store->trials_.size();
    store->open_stats_.stages = store->stages_.size();
    if (pos < data.size()) {
      store->open_stats_.dropped_bytes = data.size() - pos;
      store->open_stats_.note =
          note + strformat("; dropped %zu trailing byte(s)",
                           data.size() - pos);
      if (!read_only) {
        if (::ftruncate(store->fd_, static_cast<off_t>(pos)) != 0) {
          throw_errno("store: cannot truncate torn tail of", path);
        }
        if (::fsync(store->fd_) != 0) throw_errno("store: fsync", path);
      }
    }
    if (!read_only) {
      if (::lseek(store->fd_, 0, SEEK_END) < 0) throw_errno("store: seek", path);
    }
    if (!have_spec) {
      if (read_only) {
        throw std::runtime_error("store: '" + path +
                                 "' holds no spec record (empty or torn "
                                 "before the first frame completed)");
      }
      // The crash landed inside the very first frame: restart the file.
      store->spec_bytes_ = *spec_bytes;
      store->append_frame(kRecSpec, store->spec_bytes_);
    }
    if (spec_bytes != nullptr && store->spec_bytes_ != *spec_bytes) {
      throw std::runtime_error(
          "store: '" + path +
          "' was recorded by a different campaign (benchmarks, defenses, "
          "attacks, trials, seed, and flow knobs must all match to resume)");
    }
  }

  if (read_only) {
    ::close(store->fd_);
    store->fd_ = -1;
  } else if (const auto n = env_int("STTLOCK_STORE_CRASH_AFTER")) {
    store->crash_after_ = static_cast<long>(*n);
  }
  return store;
}

ResultStore::~ResultStore() {
  if (fd_ >= 0) ::close(fd_);
}

void ResultStore::append_frame(std::uint8_t type, const std::string& payload) {
  if (fd_ < 0) {
    throw std::logic_error("store: append on a read-only store");
  }
  std::string frame;
  frame.reserve(kFrameHeader + payload.size());
  frame.push_back(static_cast<char>(type));
  put_u32le(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32le(frame, crc32(payload));
  frame += payload;
  write_all(fd_, frame.data(), frame.size(), path_);
  // One fsync per record is the crash-safety contract: once an append
  // returns, a kill at any later instant leaves the record recoverable.
  if (::fsync(fd_) != 0) throw_errno("store: fsync", path_);
}

void ResultStore::maybe_crash_after_trial() {
  if (crash_after_ < 0) return;
  if (--crash_after_ > 0) return;
  // Simulate a kill mid-append: half a frame header, durably on disk, then
  // an abrupt exit (no destructors, no atexit) with a kill-like status.
  const char torn[] = {static_cast<char>(kRecTrial), 0x40, 0x00};
  write_all(fd_, torn, sizeof torn, path_);
  ::fsync(fd_);
  ::_exit(137);
}

bool ResultStore::append_trial(const TrialKey& key, const TrialRecord& record,
                               const obs::MetricsSnapshot& obs_delta) {
  std::lock_guard lock(mu_);
  if (trials_.count(key) != 0) return false;
  WireWriter w;
  encode_trial_key(w, key);
  encode_trial_record(w, record);
  encode_metrics_snapshot(w, obs_delta);
  append_frame(kRecTrial, w.bytes());
  trials_.emplace(key, StoredTrial{record, obs_delta});
  maybe_crash_after_trial();
  return true;
}

bool ResultStore::append_stage(const std::string& key,
                               const obs::MetricsSnapshot& obs_delta) {
  std::lock_guard lock(mu_);
  if (stages_.count(key) != 0) return false;
  WireWriter w;
  w.str(key);
  encode_metrics_snapshot(w, obs_delta);
  append_frame(kRecStage, w.bytes());
  stages_.emplace(key, obs_delta);
  return true;
}

}  // namespace stt
