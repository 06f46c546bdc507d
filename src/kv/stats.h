// I/O counters the evaluation harness reads: the paper's comparisons are
// largely about how many rows/bytes each index forces the store to touch.

#ifndef TRASS_KV_STATS_H_
#define TRASS_KV_STATS_H_

#include <atomic>
#include <cstdint>

namespace trass {
namespace kv {

struct IoStats {
  std::atomic<uint64_t> blocks_read{0};       // data blocks fetched from disk
  std::atomic<uint64_t> block_bytes_read{0};  // payload bytes of those blocks
  std::atomic<uint64_t> readahead_reads{0};   // readahead window preads issued
  std::atomic<uint64_t> readahead_bytes_read{0};  // bytes those preads fetched
  std::atomic<uint64_t> rows_scanned{0};      // entries yielded to scans
  std::atomic<uint64_t> range_scans{0};
  std::atomic<uint64_t> checksum_verifications{0};  // blocks CRC-checked
  std::atomic<uint64_t> corruptions_detected{0};    // checksum mismatches
  std::atomic<uint64_t> batch_commits{0};      // group-commit batches applied
  std::atomic<uint64_t> batch_rows{0};         // rows inside those batches
  std::atomic<uint64_t> background_errors{0};  // sticky write-path failures
  std::atomic<uint64_t> write_stalls{0};       // writes throttled or shed
  std::atomic<uint64_t> stall_ms{0};           // total time writes spent stalled
  std::atomic<uint64_t> resume_attempts{0};    // Resume() calls (incl. probes)

  void Reset() {
    blocks_read = 0;
    block_bytes_read = 0;
    readahead_reads = 0;
    readahead_bytes_read = 0;
    rows_scanned = 0;
    range_scans = 0;
    checksum_verifications = 0;
    corruptions_detected = 0;
    batch_commits = 0;
    batch_rows = 0;
    background_errors = 0;
    write_stalls = 0;
    stall_ms = 0;
    resume_attempts = 0;
  }

  struct Snapshot {
    uint64_t blocks_read;
    uint64_t block_bytes_read;
    uint64_t readahead_reads;
    uint64_t readahead_bytes_read;
    uint64_t rows_scanned;
    uint64_t range_scans;
    uint64_t checksum_verifications;
    uint64_t corruptions_detected;
    uint64_t batch_commits;
    uint64_t batch_rows;
    uint64_t background_errors;
    uint64_t write_stalls;
    uint64_t stall_ms;
    uint64_t resume_attempts;
    // Gauge, not a counter: regions currently wedged read-only. Always
    // 0 at the DB level; RegionStore::TotalIoStats fills it live.
    uint64_t read_only_regions = 0;
  };

  Snapshot Read() const {
    return Snapshot{blocks_read.load(),
                    block_bytes_read.load(),
                    readahead_reads.load(),
                    readahead_bytes_read.load(),
                    rows_scanned.load(),
                    range_scans.load(),
                    checksum_verifications.load(),
                    corruptions_detected.load(),
                    batch_commits.load(),
                    batch_rows.load(),
                    background_errors.load(),
                    write_stalls.load(),
                    stall_ms.load(),
                    resume_attempts.load()};
  }
};

}  // namespace kv
}  // namespace trass

#endif  // TRASS_KV_STATS_H_
