#include "kv/region_store.h"

namespace trass {
namespace kv {

namespace {

std::string RegionContext(size_t region) {
  return "region " + std::to_string(region);
}

Status CheckKey(const Slice& key, int num_regions) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  const int shard = static_cast<unsigned char>(key[0]);
  if (shard >= num_regions) {
    return Status::InvalidArgument("shard byte out of range");
  }
  return Status::OK();
}

}  // namespace

Status RegionStore::Open(const RegionOptions& options, const std::string& path,
                         std::unique_ptr<RegionStore>* store) {
  store->reset();
  if (options.num_regions < 1 || options.num_regions > 256) {
    return Status::InvalidArgument("num_regions must be in [1, 256]");
  }
  std::unique_ptr<RegionStore> impl(new RegionStore());
  Env* env = options.db_options.env != nullptr ? options.db_options.env
                                               : Env::Default();
  Status s = env->CreateDir(path);
  if (!s.ok()) return s;
  impl->health_.resize(options.num_regions);
  for (int i = 0; i < options.num_regions; ++i) {
    std::unique_ptr<DB> db;
    s = DB::Open(options.db_options, path + "/region-" + std::to_string(i),
                 &db);
    if (!s.ok()) return s.WithContext(RegionContext(i));
    impl->regions_.push_back(std::move(db));
  }
  impl->pool_ = std::make_unique<ThreadPool>(options.scan_threads);
  *store = std::move(impl);
  return Status::OK();
}

Status RegionStore::Put(const WriteOptions& options, const Slice& key,
                        const Slice& value) {
  Status s = CheckKey(key, num_regions());
  if (!s.ok()) return s;
  const size_t shard = static_cast<unsigned char>(key[0]);
  return regions_[shard]->Put(options, key, value).WithContext(
      RegionContext(shard));
}

Status RegionStore::ApplyBatch(const WriteOptions& options, int shard,
                               WriteBatch* batch) {
  if (shard < 0 || shard >= num_regions()) {
    return Status::InvalidArgument("shard out of range");
  }
  if (batch == nullptr || batch->Count() == 0) return Status::OK();
  Status s = regions_[shard]->Write(options, batch);
  if (!s.ok()) return s.WithContext(RegionContext(shard));
  store_stats_.batch_commits.fetch_add(1, std::memory_order_relaxed);
  store_stats_.batch_rows.fetch_add(batch->Count(),
                                    std::memory_order_relaxed);
  return Status::OK();
}

Status RegionStore::ScanRegion(size_t region,
                               const std::vector<ScanRange>& ranges,
                               const ScanFilter* filter,
                               const QueryContext* control,
                               std::vector<Row>* rows) {
  std::unique_ptr<Iterator> iter(regions_[region]->NewIterator());
  const char shard = static_cast<char>(region);
  std::vector<Row> kept;
  size_t since_check = 0;
  for (const ScanRange& range : ranges) {
    std::string start(1, shard);
    start += range.start;
    std::string end;
    if (!range.end.empty()) {
      end.assign(1, shard);
      end += range.end;
    }
    for (iter->Seek(Slice(start)); iter->Valid(); iter->Next()) {
      const Slice key = iter->key();
      // An unbounded range needs no end check: a region database holds
      // exactly one shard, so every key of this region matches.
      if (!end.empty() && key.compare(Slice(end)) >= 0) break;
      if (control != nullptr && ++since_check >= kControlCheckInterval) {
        since_check = 0;
        Status stop = control->Check();
        if (!stop.ok()) return stop;
      }
      if (filter == nullptr || filter->Keep(key, iter->value())) {
        if (control != nullptr && !control->ChargeCandidates(1)) {
          return control->Check();  // Busy: candidate budget exhausted
        }
        if (rows != nullptr) {
          kept.push_back(Row{key.ToString(), iter->value().ToString()});
        }
      }
    }
    if (!iter->status().ok()) return iter->status();
  }
  if (rows != nullptr) *rows = std::move(kept);
  return Status::OK();
}

Status RegionStore::Scan(const std::vector<ScanRange>& ranges,
                         const ScanFilter* filter, std::vector<Row>* out,
                         ScanReport* report, const QueryContext* control) {
  if (report != nullptr) *report = ScanReport{};
  if (ranges.empty()) return Status::OK();
  const size_t n = regions_.size();
  std::vector<std::vector<Row>> per_region(n);
  std::vector<Status> statuses(n);
  std::vector<char> attempted(n, 0);
  // Readahead deltas per region (each region is scanned by one worker,
  // so plain slots suffice).
  struct RegionIo {
    uint64_t ra_reads = 0, ra_bytes = 0;
  };
  std::vector<RegionIo> region_io(n);

  auto scan_region = [&](size_t region) {
    attempted[region] = 1;
    const IoStats& io = regions_[region]->io_stats();
    const IoStats::Snapshot before = io.Read();
    Status s = ScanRegion(region, ranges, filter, control,
                          out == nullptr ? nullptr : &per_region[region]);
    const IoStats::Snapshot after = io.Read();
    RegionIo& delta = region_io[region];
    delta.ra_reads = after.readahead_reads - before.readahead_reads;
    delta.ra_bytes = after.readahead_bytes_read - before.readahead_bytes_read;
    if (!s.ok() && !s.IsQueryStop()) {
      // A fault: counted against the region and attributed to it (shard
      // == region index). A query stop is caller-attributed and passes
      // through untouched.
      RecordFailure(region, s);
      s = s.WithContext(RegionContext(region));
    }
    statuses[region] = std::move(s);
  };
  if (control != nullptr) {
    // Early-exit fan-out: regions not yet started when the query stops
    // are never scanned (their statuses stay OK with no rows, and the
    // stop status below fails the whole scan anyway).
    pool_->ParallelFor(n, scan_region,
                       [control] { return control->ShouldStop(); });
  } else {
    pool_->ParallelFor(n, scan_region);
  }

  Status failure;
  Status query_stop;
  for (size_t region = 0; region < n; ++region) {
    if (statuses[region].ok()) continue;
    Status& first = statuses[region].IsQueryStop() ? query_stop : failure;
    if (first.ok()) first = statuses[region];
  }
  if (report != nullptr) {
    for (const RegionIo& delta : region_io) {
      report->readahead_reads += delta.ra_reads;
      report->readahead_bytes_read += delta.ra_bytes;
    }
  }
  // A stop must never mask a region that was proven down: the fault
  // wins, so an allow_partial caller cannot turn it into a partial OK.
  if (!failure.ok()) return failure;
  if (!query_stop.ok()) return query_stop;
  // The fan-out may also have stopped before some regions even started
  // (skipped by the cancellation-aware ParallelFor, statuses left OK);
  // surface that as the stop status rather than a silently short result.
  // A scan whose every region completed stays OK even if the deadline
  // expired at the tail — partial-result policy belongs to the caller.
  for (size_t region = 0; region < n; ++region) {
    if (attempted[region]) continue;
    Status stop =
        control != nullptr ? control->Check() : Status::OK();
    return stop.ok()
               ? Status::Cancelled("scan aborted before reaching region " +
                                   std::to_string(region))
               : stop;
  }
  for (auto& rows : per_region) {  // all empty when out is null
    for (auto& row : rows) out->push_back(std::move(row));
  }
  return Status::OK();
}

void RegionStore::RecordFailure(size_t region, const Status& s) {
  std::lock_guard<std::mutex> lock(health_mu_);
  RegionHealth& health = health_[region];
  ++health.failed_attempts;
  health.last_error = s.ToString();
}

void RegionStore::FillLiveState(size_t region, RegionHealth* health) const {
  const DB& db = *regions_[region];
  health->read_only = db.read_only();
  if (health->read_only) {
    health->background_error = db.background_error().ToString();
  }
}

RegionHealth RegionStore::Health(int region) const {
  RegionHealth copy;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    copy = health_.at(region);
  }
  // Live state is read after the counter copy, outside the lock.
  FillLiveState(static_cast<size_t>(region), &copy);
  return copy;
}

std::vector<RegionHealth> RegionStore::HealthSnapshot() const {
  std::vector<RegionHealth> copy;
  {
    std::lock_guard<std::mutex> lock(health_mu_);
    copy = health_;
  }
  for (size_t region = 0; region < copy.size(); ++region) {
    FillLiveState(region, &copy[region]);
  }
  return copy;
}

Status RegionStore::Resume() {
  Status first_failure;
  for (size_t region = 0; region < regions_.size(); ++region) {
    DB* db = regions_[region].get();
    if (!db->read_only()) continue;
    // One probe per call: the caller (operator or auto-resume prober)
    // decides when to try again.
    Status s = db->Resume();
    if (!s.ok() && first_failure.ok()) {
      first_failure = s.WithContext(RegionContext(region));
    }
  }
  return first_failure;
}

bool RegionStore::WritesDegraded() const { return ReadOnlyRegions() > 0; }

uint64_t RegionStore::ReadOnlyRegions() const {
  uint64_t wedged = 0;
  for (const auto& db : regions_) {
    if (db->read_only()) ++wedged;
  }
  return wedged;
}

Status RegionStore::FirstBackgroundError() const {
  for (size_t region = 0; region < regions_.size(); ++region) {
    Status s = regions_[region]->background_error();
    if (!s.ok()) return s.WithContext(RegionContext(region));
  }
  return Status::OK();
}

Status RegionStore::Flush() {
  for (size_t region = 0; region < regions_.size(); ++region) {
    Status s = regions_[region]->Flush();
    if (!s.ok()) return s.WithContext(RegionContext(region));
  }
  return Status::OK();
}

Status RegionStore::VerifyIntegrity() {
  for (size_t region = 0; region < regions_.size(); ++region) {
    Status s = regions_[region]->VerifyIntegrity();
    if (!s.ok()) return s.WithContext(RegionContext(region));
  }
  return Status::OK();
}

IoStats::Snapshot RegionStore::TotalIoStats() const {
  IoStats::Snapshot total = store_stats_.Read();
  for (const auto& db : regions_) {
    const IoStats::Snapshot s = db->io_stats().Read();
    total.blocks_read += s.blocks_read;
    total.block_bytes_read += s.block_bytes_read;
    total.readahead_reads += s.readahead_reads;
    total.readahead_bytes_read += s.readahead_bytes_read;
    total.rows_scanned += s.rows_scanned;
    total.range_scans += s.range_scans;
    total.checksum_verifications += s.checksum_verifications;
    total.corruptions_detected += s.corruptions_detected;
    total.background_errors += s.background_errors;
    total.write_stalls += s.write_stalls;
    total.stall_ms += s.stall_ms;
    total.resume_attempts += s.resume_attempts;
    if (db->read_only()) ++total.read_only_regions;
    // batch_commits/batch_rows are store-level counters (store_stats_).
  }
  return total;
}

void RegionStore::ResetIoStats() {
  store_stats_.Reset();
  for (const auto& db : regions_) db->mutable_io_stats()->Reset();
}

uint64_t RegionStore::TotalTableBytes() const {
  uint64_t total = 0;
  for (const auto& db : regions_) total += db->TotalTableBytes();
  return total;
}

}  // namespace kv
}  // namespace trass
