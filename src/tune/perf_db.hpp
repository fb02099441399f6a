// Persistent per-shape perf DB — the on-disk half of the solver registry.
//
// MIOpen's find-db idea in a deliberately simple text format. One file
// holds the tuning results of one machine:
//
//   RFPD1 cpu=<signature>
//   # optional comment lines
//   <problem-key> solver=<name> params=<p> gflops=<g>
//
// Line 1 is the version header; a record line is whitespace-separated with
// the problem key first (keys contain no whitespace) followed by tagged
// fields in any order. `params=` may be absent (defaults). Records whose
// key or fields fail to parse are skipped and counted, never fatal — a
// truncated or hand-mangled DB degrades to the heuristic, it does not take
// serving down. A header whose CPU signature differs from the running
// machine invalidates the whole file (tuned blockings do not transfer).
// Writes go through a temp file + atomic rename so readers never observe a
// half-written DB.
#pragma once

#include <cstddef>
#include <map>
#include <string>

namespace roadfusion::tune {

/// One tuning result: the winning solver for a problem key, its tuned
/// parameter string ("" = defaults) and the measured rate (informational —
/// selection only uses the solver/params fields).
struct PerfRecord {
  std::string solver;
  std::string params;
  double gflops = 0.0;
};

class PerfDb {
 public:
  void set(const std::string& problem_key, PerfRecord record);
  const PerfRecord* find(const std::string& problem_key) const;
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::map<std::string, PerfRecord>& records() const { return records_; }

  /// Header + records, sorted by problem key — serialize/parse round-trips
  /// byte-identically.
  std::string serialize() const;

  /// Atomic write: serialize to `path + ".tmp"`, then rename over `path`.
  /// Throws roadfusion::Error on I/O failure.
  void save(const std::string& path) const;

 private:
  std::map<std::string, PerfRecord> records_;
};

struct PerfDbLoad {
  PerfDb db;
  bool found = false;             ///< the file existed and was readable
  bool cpu_mismatch = false;      ///< header names a different machine
  bool version_mismatch = false;  ///< header magic is not RFPD1
  size_t skipped_lines = 0;       ///< corrupted record lines dropped
};

/// Reads `path`; a missing file yields an empty result with found=false.
PerfDbLoad load_perf_db_file(const std::string& path);

/// Parses DB text (the testable core of load_perf_db_file()).
PerfDbLoad parse_perf_db(const std::string& text);

/// Signature of the running machine, stamped into the DB header:
/// architecture, SIMD level the kernels were compiled for, and the core
/// count (blocking winners depend on all three).
std::string cpu_signature();

}  // namespace roadfusion::tune
