#include "runner/cell_cache.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
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

/// Process-wide publish counter: with the pid it names each publish's temp
/// file uniquely, across processes and across threads (and CellCache
/// instances) of one process.
std::atomic<std::uint64_t> publish_sequence{0};

/// Process-wide count of CellCache instances: with the host and pid it
/// names each instance's claim template uniquely.
std::atomic<std::uint64_t> cache_sequence{0};

/// Reads the whole file; true only when it holds one complete
/// '\n'-terminated line (anything else — empty, truncated mid-write,
/// multi-line garbage — is not a valid entry).
bool read_entry_line(const std::string& path, std::string& line) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  if (text.empty() || text.back() != '\n') return false;
  text.pop_back();
  if (text.find('\n') != std::string::npos) return false;
  line = std::move(text);
  return true;
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

CellCache::CellCache(std::string dir, std::string epoch,
                     std::int64_t lease_seconds)
    : dir_(std::move(dir)),
      epoch_(std::move(epoch)),
      lease_seconds_(lease_seconds) {
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
  const std::string hex = util::sha256_hex(util::json::dump(key));
  return dir_ + "/" + hex.substr(0, 2) + "/" + hex + ".jsonl";
}

std::string CellCache::claim_path(const Value& key) const {
  std::string path = entry_path(key);
  path.resize(path.size() - std::strlen(".jsonl"));
  return path + ".claim";
}

CellCache::Probe CellCache::probe(const Scenario& cell, std::uint64_t seed) {
  Probe out;
  switch (load_entry(cell_key(cell, seed), out.result)) {
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
                                            protocol::SimResult& out) const {
  const std::string path = entry_path(key);
  std::string line;
  if (!read_entry_line(path, line)) {
    std::error_code ec;
    // Present but empty/truncated/torn is invalid, not missing.
    return fs::exists(path, ec) ? EntryState::kInvalid : EntryState::kMissing;
  }
  try {
    const Value entry = util::json::parse(line);
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
    // (edited entry, codec change without an epoch bump) recomputes.
    if (util::json::dump(protocol::to_json(result)) !=
        util::json::dump(entry.at("result")))
      throw util::json::Error("result does not round-trip");
    out = std::move(result);
    return EntryState::kValid;
  } catch (const std::exception&) {
    return EntryState::kInvalid;
  }
}

void CellCache::publish(const Scenario& cell, std::uint64_t seed,
                        const protocol::SimResult& result, double wall_ms) {
  const Value key = cell_key(cell, seed);
  const std::string path = entry_path(key);

  Object cost;
  cost.set("protocol", cell.protocol.name)
      .set("units", CostModel::estimate_units(cell));
  Object entry;
  entry.set("format", kEntryFormat)
      .set("epoch", epoch_)
      .set("key", key)
      .set("cost", Value(std::move(cost)))
      .set("wall_ms", wall_ms)
      .set("result", protocol::to_json(result));
  const std::string text = util::json::dump(Value(std::move(entry))) + "\n";

  create_parent_directory(path);
  // Temp name unique per publish (pid + process-wide sequence): concurrent
  // publishers of the same cell, in this process or another, never share or
  // clobber a half-written temp; the rename is atomic.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
      std::to_string(publish_sequence.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cannot write cache entry '" + tmp + "'");
    out << text;
    if (!out.flush())
      throw std::runtime_error("write to cache entry '" + tmp + "' failed");
  }
  std::error_code rename_ec;
  fs::rename(tmp, path, rename_ec);
  if (rename_ec) {
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("cannot rename cache entry '" + tmp + "' to '" +
                             path + "': " + rename_ec.message());
  }
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
  const std::string path = claim_path(key);
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
        if (load_entry(key, published) != EntryState::kValid) return true;
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

CellCache::DirStats CellCache::scan(const std::string& dir) {
  DirStats out;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file() || it->path().extension() != ".jsonl")
      continue;
    ++out.entries;
    out.bytes += it->file_size(ec);
    std::string line;
    if (!read_entry_line(it->path().string(), line)) continue;
    try {
      const Value entry = util::json::parse(line);
      const std::string& name =
          entry.at("cost").at("protocol").as_string();
      ++out.entries_by_protocol[name];
      out.total_wall_ms += entry.at("wall_ms").as_number();
    } catch (const std::exception&) {
      // Unparsable entries still occupy space; counted above.
    }
  }
  return out;
}

CellCache::GcReport CellCache::gc(const std::string& dir,
                                  std::uintmax_t max_bytes) {
  GcReport report;
  struct EntryFile {
    fs::file_time_type mtime;
    std::string path;
    std::uintmax_t size = 0;
  };
  std::vector<EntryFile> files;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (!it->is_regular_file() || it->path().extension() != ".jsonl")
      continue;
    EntryFile f;
    f.path = it->path().string();
    f.mtime = it->last_write_time(ec);
    f.size = it->file_size(ec);
    files.push_back(std::move(f));
  }
  report.entries_before = files.size();
  for (const EntryFile& f : files) report.bytes_before += f.size;
  report.bytes_after = report.bytes_before;
  if (report.bytes_before <= max_bytes) return report;

  // Oldest first; ties broken by path so runs over identical trees delete
  // the same files.
  std::sort(files.begin(), files.end(),
            [](const EntryFile& a, const EntryFile& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  for (const EntryFile& f : files) {
    if (report.bytes_after <= max_bytes) break;
    if (fs::remove(f.path, ec) && !ec) {
      report.bytes_after -= f.size;
      ++report.entries_removed;
    }
  }
  return report;
}

}  // namespace econcast::runner
