#include "runner/cell_cache.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "protocol/protocol_json.h"
#include "runner/cost_model.h"
#include "runner/manifest.h"
#include "util/sha256.h"

namespace econcast::runner {

namespace fs = std::filesystem;

namespace {

using util::json::Object;
using util::json::Value;

constexpr const char* kEntryFormat = "econcast-cell-cache";
constexpr const char* kClaimFormat = "econcast-cell-claim";
constexpr int kKeySchema = 1;
constexpr std::string_view kSegmentSuffix = ".seg";
constexpr std::size_t kDigestChars = 64;
/// A line's digest and the space after it.
constexpr std::size_t kLinePrefix = kDigestChars + 1;
/// Segments are read in pieces of this size, never whole.
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::uint32_t kNoSegment = std::numeric_limits<std::uint32_t>::max();

/// Process-wide count of CellCache instances and segments: with the host
/// and pid it names each instance's claim template and each segment
/// uniquely.
std::atomic<std::uint64_t> cache_sequence{0};

std::string key_digest(const Value& key) {
  return util::sha256_hex(util::json::dump(key));
}

/// <dir>/<digest[0:2]>/<digest>: where the cell's claim hangs off.
std::string digest_path(const std::string& dir, const std::string& digest) {
  return dir + "/" + digest.substr(0, 2) + "/" + digest;
}

std::string segment_dir(const std::string& dir) { return dir + "/seg"; }

bool is_segment_name(std::string_view name) {
  return name.size() > kSegmentSuffix.size() &&
         name.substr(name.size() - kSegmentSuffix.size()) == kSegmentSuffix;
}

/// The digest a line starts with, or empty when it starts with none.
std::string_view line_digest(std::string_view line) {
  if (line.size() < kLinePrefix || line[kDigestChars] != ' ') return {};
  const std::string_view digest = line.substr(0, kDigestChars);
  return digest.find_first_not_of("0123456789abcdef") == std::string_view::npos
             ? digest
             : std::string_view();
}

/// A digest's first 16 hex digits: the index's hash.
std::uint64_t digest_tag(std::string_view digest) {
  std::uint64_t tag = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    const char c = digest[i];
    tag = tag << 4 |
          static_cast<std::uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
  }
  return tag;
}

/// Reads `fd` from `offset` to its end, kReadChunk bytes at a time, and
/// calls on_line(offset, line) for every complete line (without its '\n').
/// Returns the offset past the last complete line; `tail` gets the bytes
/// after it: a torn line, or nothing.
template <typename OnLine>
std::uint64_t read_lines(int fd, std::uint64_t offset, std::string& tail,
                         OnLine&& on_line) {
  std::vector<char> chunk(kReadChunk);
  std::string partial;  // the start of a line split across chunks
  std::uint64_t at = offset;
  for (;;) {
    const ssize_t got =
        ::pread(fd, chunk.data(), chunk.size(), static_cast<off_t>(at));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    at += static_cast<std::uint64_t>(got);
    std::string_view data(chunk.data(), static_cast<std::size_t>(got));
    for (std::size_t nl; (nl = data.find('\n')) != std::string_view::npos;) {
      std::string_view line = data.substr(0, nl);
      if (!partial.empty()) {
        partial.append(line);
        line = partial;
      }
      on_line(offset, line);
      offset += line.size() + 1;
      partial.clear();
      data.remove_prefix(nl + 1);
    }
    partial.append(data);
  }
  tail = std::move(partial);
  return offset;
}

/// One indexed line: its digest's tag, its segment, and where it lies
/// there (without its '\n').
struct LineRef {
  std::uint64_t tag = 0;
  std::uint32_t segment = kNoSegment;
  std::uint32_t length = 0;
  std::uint64_t offset = 0;
};

/// A line to read outside the store's mutex, with what reading it needs.
struct Candidate {
  LineRef ref;
  int fd = -1;  // open when the segment is this instance's
  std::string path;
};

bool read_line(const Candidate& c, std::string& line) {
  int fd = c.fd;
  if (fd < 0) fd = ::open(c.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;  // removed (gc) since it was indexed
  line.resize(c.ref.length);
  std::size_t got = 0;
  while (got < line.size()) {
    const ssize_t n = ::pread(fd, line.data() + got, line.size() - got,
                              static_cast<off_t>(c.ref.offset + got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (fd != c.fd) ::close(fd);
  return got == line.size();
}

void create_parent_directory(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  std::error_code ec;
  fs::create_directories(parent, ec);
  if (ec)
    throw std::runtime_error("cannot create cache directory '" +
                             parent.string() + "': " + ec.message());
}

/// Claim paths held by threads of this process. The claim files name the
/// process, not the thread, so this is what keeps two threads (or two
/// caches over one directory) from both taking one cell.
std::mutex held_mutex;
std::set<std::string> held_claims;

void forget_held(const std::string& path) {
  const std::lock_guard<std::mutex> lock(held_mutex);
  held_claims.erase(path);
}

std::int64_t unix_seconds() {
  return std::chrono::duration_cast<std::chrono::seconds>(
             // NOLINT-DETERMINISM(wall-clock): claim timestamps only — they
             // decide who computes a cell, never any byte of its result.
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// True when `pid` names no process on this host.
bool process_gone(const std::string& pid_text) {
  if (pid_text.empty() || pid_text.size() > 9 ||
      pid_text.find_first_not_of("0123456789") != std::string::npos)
    return false;
  const long pid = std::stol(pid_text);
  return pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
         errno == ESRCH;
}

}  // namespace

/// The segments this instance knows and the index of their lines. One mutex
/// guards it all; lines are read and validated outside it.
struct CellCache::Store {
  struct Segment {
    std::string path;
    int fd = -1;                    // open only for this instance's own
    std::uint64_t indexed_end = 0;  // past its last complete line
    std::string torn_digest;        // the digest its torn tail starts with
  };

  std::mutex mutex;
  std::vector<Segment> segments;                  // by id
  std::map<std::string, std::uint32_t> by_name;  // file name -> id
  /// Open addressing with linear probing on the tag; a slot is empty when
  /// its segment is kNoSegment. Lines are only ever added.
  std::vector<LineRef> slots;
  std::size_t lines = 0;
  std::uint32_t own = kNoSegment;  // the segment this instance appends to
  std::uint64_t own_end = 0;

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  ~Store() {
    for (const Segment& segment : segments)
      if (segment.fd >= 0) ::close(segment.fd);
  }

  void insert(const LineRef& ref) {
    if ((lines + 1) * 4 > slots.size() * 3) {
      std::vector<LineRef> old(std::max<std::size_t>(1024, 2 * slots.size()));
      old.swap(slots);
      for (const LineRef& r : old)
        if (r.segment != kNoSegment) place(r);
    }
    place(ref);
    ++lines;
  }

  void place(const LineRef& ref) {
    const std::size_t mask = slots.size() - 1;
    std::size_t i = ref.tag & mask;
    while (slots[i].segment != kNoSegment) i = (i + 1) & mask;
    slots[i] = ref;
  }

  /// Appends the lines indexed under `tag` that `out` does not hold yet.
  void find(std::uint64_t tag, std::vector<Candidate>& out) const {
    if (slots.empty()) return;
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = tag & mask; slots[i].segment != kNoSegment;
         i = (i + 1) & mask) {
      const LineRef& ref = slots[i];
      if (ref.tag != tag ||
          std::any_of(out.begin(), out.end(), [&](const Candidate& c) {
            return c.ref.segment == ref.segment && c.ref.offset == ref.offset;
          }))
        continue;
      const Segment& segment = segments[ref.segment];
      out.push_back(Candidate{ref, segment.fd, segment.path});
    }
  }

  bool torn(std::string_view digest) const {
    return std::any_of(
        segments.begin(), segments.end(),
        [&](const Segment& segment) { return segment.torn_digest == digest; });
  }

  /// Lists <dir>/seg and indexes every foreign segment's lines past its
  /// last complete one.
  void refresh(const std::string& dir) {
    std::error_code ec;
    for (fs::directory_iterator it(segment_dir(dir), ec), end;
         !ec && it != end; it.increment(ec)) {
      std::string name = it->path().filename().string();
      if (!is_segment_name(name)) continue;
      const auto [pos, added] = by_name.try_emplace(
          std::move(name), static_cast<std::uint32_t>(segments.size()));
      if (added) segments.push_back(Segment{it->path().string(), -1, 0, {}});
      if (segments[pos->second].fd < 0) read_tail(pos->second);
    }
  }

  void read_tail(std::uint32_t id) {
    Segment& segment = segments[id];
    const int fd = ::open(segment.path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) return;  // removed (gc) since it was listed
    struct stat st {};
    if (::fstat(fd, &st) == 0 &&
        static_cast<std::uint64_t>(st.st_size) > segment.indexed_end) {
      std::string tail;
      segment.indexed_end = read_lines(
          fd, segment.indexed_end, tail,
          [&](std::uint64_t offset, std::string_view line) {
            const std::string_view digest = line_digest(line);
            if (!digest.empty() && line.size() < kNoSegment)
              insert(LineRef{digest_tag(digest), id,
                             static_cast<std::uint32_t>(line.size()),
                             offset});
          });
      segment.torn_digest = line_digest(tail);
    }
    ::close(fd);
  }

  /// Creates a fresh segment for this instance to append to.
  void open_own(const std::string& dir, const std::string& host) {
    const std::string directory = segment_dir(dir);
    std::error_code ec;
    fs::create_directories(directory, ec);
    if (ec)
      throw std::runtime_error("cannot create cache directory '" + directory +
                               "': " + ec.message());
    for (;;) {
      std::string name = host + "." +
                         std::to_string(static_cast<long>(::getpid())) + "." +
                         std::to_string(cache_sequence.fetch_add(1)) +
                         std::string(kSegmentSuffix);
      std::string path = directory + "/" + name;
      const int fd = ::open(path.c_str(),
                            O_RDWR | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC,
                            0644);
      if (fd < 0 && errno == EEXIST) continue;  // a dead process's, same pid
      if (fd < 0)
        throw std::runtime_error("cannot create cache segment '" + path +
                                 "': " + std::strerror(errno));
      own = static_cast<std::uint32_t>(segments.size());
      own_end = 0;
      by_name[std::move(name)] = own;
      segments.push_back(Segment{std::move(path), fd, 0, {}});
      return;
    }
  }
};

CellCache::CellCache(std::string dir, std::string epoch,
                     std::int64_t lease_seconds)
    : dir_(std::move(dir)),
      epoch_(std::move(epoch)),
      lease_seconds_(lease_seconds),
      store_(std::make_unique<Store>()) {
  if (dir_.empty())
    throw std::invalid_argument("cell cache needs a directory");
  char host[256] = {};
  if (::gethostname(host, sizeof host - 1) != 0)
    std::strcpy(host, "localhost");
  host_ = host;
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  worker_ = host_ + ":" + pid;
  template_path_ = dir_ + "/.claimer." + host_ + "." + pid + "." +
                   std::to_string(cache_sequence.fetch_add(1));
}

CellCache::~CellCache() {
  std::error_code ec;
  fs::remove(template_path_, ec);
}

CellCache::Stats CellCache::stats() const noexcept {
  Stats out;
  out.hits = hits_.load();
  out.misses = misses_.load();
  out.rejected = rejected_.load();
  out.publishes = publishes_.load();
  return out;
}

Value CellCache::cell_key(const Scenario& cell, std::uint64_t seed) const {
  Object key;
  key.set("format", kEntryFormat)
      .set("schema", kKeySchema)
      .set("epoch", epoch_)
      .set("seed", util::json::u64_to_string(seed));
  // The scenario codec already serializes everything the result depends on
  // (nodes, topology, the ProtocolSpec); only the name is dropped — names
  // embed the sweep name, and cells are shared across sweeps.
  const Value scenario = to_json(cell);
  for (const auto& [member, value] : scenario.as_object().members())
    if (member != "name") key.set(member, value);
  return Value(std::move(key));
}

std::string CellCache::entry_path(const Value& key) const {
  return digest_path(dir_, key_digest(key));
}

std::string CellCache::claim_path(const Value& key) const {
  return entry_path(key) + ".claim";
}

CellCache::Probe CellCache::probe(const Scenario& cell, std::uint64_t seed) {
  Probe out;
  const Value key = cell_key(cell, seed);
  switch (load_entry(key, key_digest(key), out.result)) {
    case EntryState::kValid:
      out.hit = true;
      ++hits_;
      break;
    case EntryState::kMissing:
      ++misses_;
      break;
    case EntryState::kInvalid:
      ++rejected_;
      break;
  }
  return out;
}

CellCache::EntryState CellCache::load_entry(const Value& key,
                                            const std::string& digest,
                                            protocol::SimResult& out) const {
  Store& store = *store_;
  const std::uint64_t tag = digest_tag(digest);
  std::vector<Candidate> candidates;
  {
    const std::lock_guard<std::mutex> lock(store.mutex);
    store.find(tag, candidates);
  }
  bool invalid = false;
  std::size_t checked = 0;
  const auto check_new = [&] {
    std::string line;
    for (; checked < candidates.size(); ++checked) {
      if (!read_line(candidates[checked], line)) continue;
      switch (check_line(line, digest, key, out)) {
        case EntryState::kValid:
          return true;
        case EntryState::kInvalid:
          invalid = true;
          break;
        case EntryState::kMissing:
          break;
      }
    }
    return false;
  };
  if (check_new()) return EntryState::kValid;
  // Nothing valid indexed: take in what other writers appended since.
  {
    const std::lock_guard<std::mutex> lock(store.mutex);
    store.refresh(dir_);
    store.find(tag, candidates);
    invalid = invalid || store.torn(digest);
  }
  if (check_new()) return EntryState::kValid;
  return invalid ? EntryState::kInvalid : EntryState::kMissing;
}

CellCache::EntryState CellCache::check_line(const std::string& line,
                                            const std::string& digest,
                                            const Value& key,
                                            protocol::SimResult& out) const {
  // A line whose tag matches but whose digest does not is another cell's.
  if (line_digest(line) != digest) return EntryState::kMissing;
  try {
    const Value entry =
        util::json::parse(std::string_view(line).substr(kLinePrefix));
    if (entry.at("format").as_string() != kEntryFormat)
      throw util::json::Error("not a cell-cache entry");
    if (entry.at("epoch").as_string() != epoch_)
      throw util::json::Error("epoch mismatch");
    if (!(entry.at("key") == key))
      throw util::json::Error("key mismatch");
    protocol::SimResult result =
        protocol::sim_result_from_json(entry.at("result"));
    // The contract is byte-identity of the results file, so the decoded
    // result must re-serialize to exactly the stored bytes — any drift
    // (edited entry, codec change without an epoch bump) recomputes — and
    // those bytes must be the ones the writer hashed.
    const std::string stored = util::json::dump(entry.at("result"));
    if (util::json::dump(protocol::to_json(result)) != stored)
      throw util::json::Error("result does not round-trip");
    if (util::sha256_hex(stored) != entry.at("result_sha256").as_string())
      throw util::json::Error("result checksum mismatch");
    out = std::move(result);
    return EntryState::kValid;
  } catch (const std::exception&) {
    return EntryState::kInvalid;
  }
}

void CellCache::publish(const Scenario& cell, std::uint64_t seed,
                        const protocol::SimResult& result, double wall_ms) {
  Value key = cell_key(cell, seed);
  const std::string digest = key_digest(key);
  Value result_json = protocol::to_json(result);
  const std::string result_sha256 =
      util::sha256_hex(util::json::dump(result_json));

  Object cost;
  cost.set("protocol", cell.protocol.name)
      .set("units", estimate_units(cell));
  Object entry;
  entry.set("format", kEntryFormat)
      .set("epoch", epoch_)
      .set("key", std::move(key))
      .set("cost", Value(std::move(cost)))
      .set("wall_ms", wall_ms)
      .set("result", std::move(result_json))
      .set("result_sha256", result_sha256);
  std::string line = digest;
  line += ' ';
  line += util::json::dump(Value(std::move(entry)));
  line += '\n';

  Store& store = *store_;
  const std::lock_guard<std::mutex> lock(store.mutex);
  if (store.own == kNoSegment) store.open_own(dir_, host_);
  const Store::Segment& segment = store.segments[store.own];
  for (std::size_t written = 0; written < line.size();) {
    const ssize_t n =
        ::write(segment.fd, line.data() + written, line.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    const std::string error = n < 0 ? std::strerror(errno) : "short write";
    // Part of the line may be on disk: never append after a torn line.
    store.own = kNoSegment;
    throw std::runtime_error("write to cache segment '" + segment.path +
                             "' failed: " + error);
  }
  store.insert(LineRef{digest_tag(digest), store.own,
                       static_cast<std::uint32_t>(line.size() - 1),
                       store.own_end});
  store.own_end += line.size();
  ++publishes_;
}

std::string CellCache::claim_template() {
  const std::lock_guard<std::mutex> lock(template_mutex_);
  const std::int64_t now = unix_seconds();
  if (now == template_time_) return template_path_;
  Object claim;
  claim.set("format", kClaimFormat)
      .set("worker", worker_)
      .set("claimed_at", static_cast<double>(now));
  const std::string tmp = template_path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !(out << util::json::dump(Value(std::move(claim))) << "\n"
                      << std::flush))
      throw std::runtime_error("cannot write claim template '" + tmp + "'");
  }
  // Claims linked before the rename keep the older inode, and with it the
  // time they were really taken.
  fs::rename(tmp, template_path_);
  template_time_ = now;
  return template_path_;
}

bool CellCache::try_claim(const Scenario& cell, std::uint64_t seed) {
  const Value key = cell_key(cell, seed);
  const std::string digest = key_digest(key);
  const std::string path = digest_path(dir_, digest) + ".claim";
  create_parent_directory(path);
  {
    const std::lock_guard<std::mutex> lock(held_mutex);
    if (!held_claims.insert(path).second) return false;
  }
  try {
    const std::string source = claim_template();
    // Each failed link either finds a live claim (give up) or removes a
    // stale one and links again. The bound only matters when rivals keep
    // taking the cell over; losing then just leaves it to them.
    for (int attempt = 0; attempt < 3; ++attempt) {
      std::error_code ec;
      // link(2) is the mutual exclusion: it fails with EEXIST for all but
      // one concurrent claimant, and the claim appears with its contents.
      if (::link(source.c_str(), path.c_str()) == 0) {
        // Holders publish before they release, so an entry written since
        // this worker probed the cell is visible now: nothing to compute.
        protocol::SimResult published;
        if (load_entry(key, digest, published) != EntryState::kValid)
          return true;
        fs::remove(path, ec);
        break;
      }
      if (errno != EEXIST)
        throw std::runtime_error("cannot create cell claim '" + path +
                                 "': " + std::strerror(errno));
      if (!takeable(path)) break;
      fs::remove(path, ec);
    }
  } catch (...) {
    forget_held(path);
    throw;
  }
  forget_held(path);
  return false;
}

bool CellCache::takeable(const std::string& path) const {
  Claim claim;
  try {
    claim = read_claim(path);
  } catch (const std::runtime_error&) {
    return true;  // malformed, or released since the create failed
  }
  if (claim.worker == worker_) return true;
  if (unix_seconds() - claim.claimed_at >= lease_seconds_) return true;
  const std::size_t colon = claim.worker.rfind(':');
  return colon != std::string::npos &&
         claim.worker.compare(0, colon, host_) == 0 &&
         process_gone(claim.worker.substr(colon + 1));
}

void CellCache::release(const Scenario& cell, std::uint64_t seed) {
  const std::string path = claim_path(cell_key(cell, seed));
  try {
    if (read_claim(path).worker == worker_) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  } catch (const std::runtime_error&) {
    // Gone or rewritten by a worker that took it over: not ours to remove.
  }
  forget_held(path);
}

CellCache::Claim CellCache::read_claim(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read cell claim '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const Value v = util::json::parse(buffer.str());
    if (v.at("format").as_string() != kClaimFormat)
      throw util::json::Error("not a cell claim");
    Claim claim;
    claim.worker = v.at("worker").as_string();
    const double claimed_at = v.at("claimed_at").as_number();
    // Outside this range the conversion to int64 is undefined.
    if (!(claimed_at > -9e18 && claimed_at < 9e18))
      throw util::json::Error("claimed_at out of range");
    claim.claimed_at = static_cast<std::int64_t>(claimed_at);
    return claim;
  } catch (const util::json::Error& e) {
    throw std::runtime_error("cell claim '" + path + "' is corrupt: " +
                             e.what());
  }
}

namespace {

/// The segment files under <dir>/seg, path-sorted.
std::vector<fs::path> segment_files(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (fs::directory_iterator it(segment_dir(dir), ec), end; !ec && it != end;
       it.increment(ec))
    if (is_segment_name(it->path().filename().string()) &&
        it->is_regular_file(ec))
      files.push_back(it->path());
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

CellCache::DirStats CellCache::scan(const std::string& dir) {
  DirStats out;
  for (const fs::path& path : segment_files(dir)) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    ++out.segments;
    std::string tail;
    out.bytes += read_lines(
        fd, 0, tail, [&](std::uint64_t, std::string_view line) {
          ++out.entries;
          if (line.size() < kLinePrefix) return;
          try {
            const Value entry = util::json::parse(line.substr(kLinePrefix));
            const std::string& name =
                entry.at("cost").at("protocol").as_string();
            out.total_wall_ms += entry.at("wall_ms").as_number();
            ++out.entries_by_protocol[name];
          } catch (const std::exception&) {
            // Unparsable lines still occupy space; counted above.
          }
        });
    ::close(fd);
    out.bytes += tail.size();
    if (!tail.empty()) ++out.torn_lines;
  }
  return out;
}

CellCache::GcReport CellCache::gc(const std::string& dir,
                                  std::uintmax_t max_bytes) {
  GcReport report;
  struct SegmentFile {
    fs::file_time_type mtime;
    fs::path path;
    std::uintmax_t size = 0;
    std::size_t entries = 0;
  };
  std::vector<SegmentFile> files;
  for (fs::path& path : segment_files(dir)) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) continue;
    SegmentFile f;
    std::string tail;
    f.size = read_lines(fd, 0, tail,
                        [&](std::uint64_t, std::string_view) { ++f.entries; });
    f.size += tail.size();
    ::close(fd);
    std::error_code ec;
    f.mtime = fs::last_write_time(path, ec);
    f.path = std::move(path);
    report.entries_before += f.entries;
    report.bytes_before += f.size;
    files.push_back(std::move(f));
  }
  report.bytes_after = report.bytes_before;
  if (report.bytes_before <= max_bytes) return report;

  // Oldest first; ties broken by path so runs over identical trees delete
  // the same segments.
  std::sort(files.begin(), files.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const SegmentFile& f : files) {
    if (report.bytes_after <= max_bytes) break;
    std::error_code ec;
    if (fs::remove(f.path, ec) && !ec) {
      report.bytes_after -= f.size;
      report.entries_removed += f.entries;
    }
  }
  return report;
}

}  // namespace econcast::runner
