// Content-addressed cache of completed sweep cells.
//
// The repo's central invariant — a cell's result bytes are a pure function
// of its (protocol, scenario, seed) spec, proven byte-identical across
// thread counts and processes — makes memoization sound: a cell computed
// once never needs to run again, across manifests (fig3 and table3 share
// cells), re-runs and workers.
//
// Keying. A cell's cache key is the canonical compact-JSON dump of an
// object holding everything its result bytes depend on:
//   { format, schema, epoch, seed, nodes, topology, protocol }
// where `protocol` is the cell's full ProtocolSpec JSON and `epoch` is a
// code-fingerprint string (kCacheEpoch) bumped whenever a change could alter
// any result byte or the cache layout — a stale cache can serve bytes from
// an older build otherwise. The scenario *name* is deliberately excluded:
// names embed the sweep name, and the whole point is sharing cells across
// sweeps. The key is hashed with the dependency-free util::sha256
// (std::hash is unstable across libstdc++ versions/processes — the lint's
// raw-hash rule bans it from key paths) into the cell's 64-hex digest.
//
// Layout. Entries live in append-only segments, one per writer:
//   <dir>/seg/<hostname>.<pid>.<n>.seg
// where <n> numbers the CellCache instances of one process. A CellCache
// creates its segment (O_EXCL) on its first publish and appends every entry
// it publishes to it with one write(2) under its own mutex; a segment is
// never reopened for append, so no two writers ever share one. Segment
// names never end in .jsonl.
//
// Line format. Each entry is one line:
//   <64-hex key digest> <entry JSON>\n
// with the entry JSON
//   {"format":"econcast-cell-cache","epoch":...,"key":{...},
//    "cost":{"protocol":...,"units":...},"wall_ms":...,"result":{...},
//    "result_sha256":"<64 hex>"}
// The digest prefix lets the index be built without parsing JSON, and ties
// a torn line to its cell. `key` is stored in full so probes re-validate
// the entry against the manifest expansion: a hit requires the line's
// digest to be the cell's, the stored key to equal the expected key
// value-for-value, the stored result to decode and re-serialize to the
// identical bytes, and those bytes to hash to `result_sha256` (so a flipped
// digit in a stored number is caught, not served). Anything else —
// truncation, tampering, epoch or key mismatch, hash collision — is a
// recorded rejection and the cell recomputes. `cost` (the protocol and its
// cost_model.h units) and `wall_ms` are telemetry that probes ignore;
// cache-stats totals entries per protocol and the recorded wall clock.
//
// Index and visibility. Each CellCache holds an in-memory index of fixed-
// size records, digest -> (segment, offset, length); it holds no entry
// bytes. A probe looks the digest up and pread(2)s each candidate line
// until one re-validates. A cell may have several lines (two workers
// computed it, or a rejected line was recomputed); any valid one serves.
// When no candidate validates, the cache lists <dir>/seg again and reads
// every foreign segment past its last complete line into the index, then
// looks again. So a probe or try_claim sees every entry whose publish
// returned before it began, in any process. This instance's own publishes
// enter its index as they are written.
//
// Torn lines. A writer killed mid-write (or one that hit a full disk)
// leaves its segment ending in a line without its '\n'. Readers do not
// index it, and re-read it from its start on their next refresh, so once
// the rest of the line lands it is served. Until then a probe of the cell
// it names counts as rejected, like any other invalid entry. A writer whose
// write fails abandons its segment and starts a new one, so its later
// lines are never glued to a torn one.
//
// Concurrency. One CellCache may be used from many threads at once: a
// SweepSession probes its pending cells in parallel on the executor, and
// each worker publishes the cell it just computed (the serialized
// completion hook only appends already-encoded lines). The stats counters
// are atomic, so parallel probes and publishes keep exact counts. The index
// and the segment are guarded by one mutex; reads and validation run
// outside it. Concurrent writers of the same cell write entries that agree
// on every result byte (they may differ in the observed wall_ms metadata),
// so whichever line a reader finds serves the same bytes. Multiple
// workers/processes may share one cache directory freely.
//
// Claims. The cache is also the only coordination between the processes of
// a distributed sweep. Before computing a cell, a worker claims it with
// try_claim(), which creates <dir>/<first 2 hex>/<64 hex>.claim (the cell's
// entry_path plus ".claim") holding one compact JSON line
//   {"format":"econcast-cell-claim","worker":"<hostname>:<pid>",
//    "claimed_at":<unix seconds>}
// The create is a hard link(2) of the cache's claim template
// (<dir>/.claimer.<host>.<pid>.<n>, rewritten once per second): atomic and
// exclusive like O_CREAT|O_EXCL, it never exposes an empty claim, and it
// allocates no inode, which on the filesystems measured made it one to two
// orders of magnitude cheaper than creating a file per claim. The worker
// computes and publishes the cell, then release()s the claim. A cell whose
// claim another live worker holds, or that another worker published since
// this one probed it, is skipped, not waited for. A claim is stale, and is
// taken over, when its host is this host and its pid is gone, when it is at
// least `lease_seconds` old (the only signal across hosts), or when it does
// not parse (e.g. a file torn by a kill). A claim naming this worker (this
// host and pid) is this worker's own leftover and is taken over too;
// threads of one process never take a claim from each other. Nothing
// heartbeats: a slow worker whose claim is taken over only duplicates a
// cell whose entry bytes are identical. Claim files and templates live
// outside <dir>/seg, so scan() and gc() ignore them. A killed worker leaves
// its template behind; deleting it is safe.
#ifndef ECONCAST_RUNNER_CELL_CACHE_H
#define ECONCAST_RUNNER_CELL_CACHE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "protocol/protocol.h"
#include "runner/scenario_runner.h"
#include "util/json.h"

namespace econcast::runner {

/// The code-fingerprint epoch baked into every key. Bump on any change that
/// could alter a result byte (simulator logic, RNG, JSON formatting, seed
/// derivation) or the cache layout; entries from other epochs simply miss.
inline constexpr const char* kCacheEpoch = "econcast-epoch-5";

/// Default claim lease (see the file comment), in seconds.
inline constexpr std::int64_t kDefaultClaimLeaseSeconds = 300;

class CellCache {
 public:
  /// A snapshot of the counters (see stats()).
  struct Stats {
    std::size_t hits = 0;       // probe found a valid entry
    std::size_t misses = 0;     // no entry on disk (a foreign epoch hashes
                                // to a different digest, so it misses here)
    std::size_t rejected = 0;   // entry present but failed validation
    std::size_t publishes = 0;  // entries written
  };

  struct Probe {
    bool hit = false;
    protocol::SimResult result;  // valid only when hit
  };

  /// The contents of a claim file.
  struct Claim {
    std::string worker;          // "<hostname>:<pid>"
    std::int64_t claimed_at = 0;  // unix seconds
  };

  /// A cache rooted at `dir` (created lazily on first publish or claim).
  /// The epoch defaults to kCacheEpoch; tests inject other epochs to
  /// exercise the mismatch path. Claims older than `lease_seconds` are
  /// stale; a zero lease makes every foreign claim stale.
  explicit CellCache(std::string dir, std::string epoch = kCacheEpoch,
                     std::int64_t lease_seconds = kDefaultClaimLeaseSeconds);
  /// Removes this cache's claim template; its segment stays.
  ~CellCache();
  CellCache(const CellCache&) = delete;
  CellCache& operator=(const CellCache&) = delete;

  const std::string& dir() const noexcept { return dir_; }
  /// "<hostname>:<pid>", the worker id this cache writes into its claims.
  const std::string& worker() const noexcept { return worker_; }
  /// Counters so far. Safe to call while other threads probe/publish; each
  /// counter is exact once those calls have returned.
  Stats stats() const noexcept;

  /// The canonical key object for a cell (see file comment for contents).
  util::json::Value cell_key(const Scenario& cell, std::uint64_t seed) const;

  /// <dir>/<hex[0:2]>/<hex> for the given key object, <hex> being its
  /// digest: the path the cell's claim hangs off. No entry is stored there.
  std::string entry_path(const util::json::Value& key) const;
  /// entry_path(key) + ".claim".
  std::string claim_path(const util::json::Value& key) const;

  /// Looks the cell up, re-validating any stored entry. Never throws on a
  /// bad entry — validation failures count as rejected and the caller
  /// recomputes. Updates stats; counts exactly one of hit, miss or
  /// rejected per call.
  Probe probe(const Scenario& cell, std::uint64_t seed);

  /// Appends the cell's entry to this cache's segment. `wall_ms` is the
  /// observed execution wall clock, persisted as telemetry (cache-stats
  /// totals it; probes ignore it).
  /// Throws std::runtime_error on I/O failure.
  void publish(const Scenario& cell, std::uint64_t seed,
               const protocol::SimResult& result, double wall_ms);

  // ------------------------------------------------------------ claims --

  /// Claims the cell for this worker (see the file comment). Returns false
  /// when another live worker, or another thread of this process, holds
  /// it, or when a valid entry is already published. Throws
  /// std::runtime_error, naming the path, when the claim cannot be created
  /// for any other reason.
  bool try_claim(const Scenario& cell, std::uint64_t seed);

  /// Gives up this worker's claim on the cell: the claim file is removed
  /// only while it still names this worker. Never throws on I/O errors.
  void release(const Scenario& cell, std::uint64_t seed);

  /// Parses a claim file. Throws std::runtime_error naming `path` when it
  /// is unreadable or malformed.
  static Claim read_claim(const std::string& path);

  // ------------------------------------------------ directory utilities --

  struct DirStats {
    std::size_t segments = 0;
    std::size_t entries = 0;     // complete lines
    std::size_t torn_lines = 0;  // segment tails without their '\n'
    std::uintmax_t bytes = 0;
    double total_wall_ms = 0.0;          // observed compute time saved/entry
    std::map<std::string, std::size_t> entries_by_protocol;
  };

  /// Scans a cache directory's segments (entry counts, bytes, per-protocol
  /// breakdown). Unparsable lines count toward entries/bytes but not the
  /// breakdown.
  static DirStats scan(const std::string& dir);

  struct GcReport {
    std::size_t entries_before = 0;
    std::size_t entries_removed = 0;
    std::uintmax_t bytes_before = 0;
    std::uintmax_t bytes_after = 0;
  };

  /// Deletes whole segments oldest-first (by modification time, ties by
  /// path) until the directory is within `max_bytes`. A content-addressed
  /// cache needs no reference counting — deleting any entry only costs a
  /// recompute, also when its writer is still appending to the segment.
  static GcReport gc(const std::string& dir, std::uintmax_t max_bytes);

 private:
  enum class EntryState { kMissing, kInvalid, kValid };
  struct Store;  // the segments and the line index (cell_cache.cpp)

  /// Reads and re-validates the lines stored for `key` (whose digest is
  /// `digest`); `out` is written only when one is valid. Touches no
  /// counters.
  EntryState load_entry(const util::json::Value& key,
                        const std::string& digest,
                        protocol::SimResult& out) const;
  /// Validates one stored line against `key`: kMissing when the line is
  /// another cell's.
  EntryState check_line(const std::string& line, const std::string& digest,
                        const util::json::Value& key,
                        protocol::SimResult& out) const;
  bool takeable(const std::string& claim_path) const;
  /// This cache's claim template, rewritten when its claimed_at is not the
  /// current second. Returns its path.
  std::string claim_template();

  std::string dir_;
  std::string epoch_;
  std::int64_t lease_seconds_;
  std::string host_;
  std::string worker_;
  std::string template_path_;
  std::mutex template_mutex_;  // guards the template file and time
  std::int64_t template_time_ = -1;
  std::unique_ptr<Store> store_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> rejected_{0};
  std::atomic<std::size_t> publishes_{0};
};

}  // namespace econcast::runner

#endif  // ECONCAST_RUNNER_CELL_CACHE_H
