#include "filter/filter_tier.h"

#include <algorithm>
#include <iterator>
#include <limits>

#include "index/xz2.h"  // MergeRanges

namespace trass {
namespace filter {

namespace {

QuantizedMbr EmptyQuantized() {
  QuantizedMbr q;
  q.min_x = q.min_y = std::numeric_limits<float>::infinity();
  q.max_x = q.max_y = -std::numeric_limits<float>::infinity();
  return q;
}

void UnionInto(QuantizedMbr* into, const QuantizedMbr& from) {
  into->min_x = std::min(into->min_x, from.min_x);
  into->min_y = std::min(into->min_y, from.min_y);
  into->max_x = std::max(into->max_x, from.max_x);
  into->max_y = std::max(into->max_y, from.max_y);
}

/// Orders rows by (value, tid), keeping arrival order among repeats of
/// a pair so the last delivery is the one a merge keeps.
void SortRows(std::vector<FilterRowData>* rows) {
  std::stable_sort(rows->begin(), rows->end(),
                   [](const FilterRowData& a, const FilterRowData& b) {
                     return a.index_value < b.index_value ||
                            (a.index_value == b.index_value && a.tid < b.tid);
                   });
}

template <typename T>
size_t HeapBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

constexpr size_t kHashes = static_cast<size_t>(kFingerprintParams.hashes);

// Values per row block. A merge re-cuts a block it grew past twice this,
// so one publish copies at most a few small blocks.
constexpr size_t kBlockValues = 64;

// Pending rows AddRows always lets accumulate before merging on its own.
constexpr size_t kMinMergeRows = 4096;

}  // namespace

struct RowBlock {
  std::vector<int64_t> values;    // sorted
  // Records of values[j] are rows[offsets[j] .. offsets[j + 1]).
  std::vector<uint32_t> offsets;
  std::vector<RowRecord> rows;    // sorted by (value, tid)
  std::vector<uint32_t> sigs;     // kHashes per row, same order

  RowSpan Span(size_t j) const {
    return RowSpan{rows.data() + offsets[j], sigs.data() + offsets[j] * kHashes,
                   offsets[j + 1] - offsets[j]};
  }
};

size_t FilterSnapshot::Find(int64_t value) const {
  const auto it = std::lower_bound(values_.begin(), values_.end(), value);
  if (it == values_.end() || *it != value) return kNpos;
  return static_cast<size_t>(it - values_.begin());
}

std::vector<std::pair<int64_t, int64_t>> FilterSnapshot::IntersectWithDirectory(
    const std::vector<std::pair<int64_t, int64_t>>& ranges) const {
  // Every value inside an input range is a candidate, so within one range
  // the optimal scan is the single interval [first present, last present]:
  // empty candidate values in between cost nothing to scan over. Distinct
  // input ranges are NOT merged — the gap between them holds
  // non-candidate values that may contain rows.
  std::vector<std::pair<int64_t, int64_t>> present;
  for (const auto& [lo, hi] : ranges) {
    const auto first = std::lower_bound(values_.begin(), values_.end(), lo);
    if (first == values_.end() || *first > hi) continue;
    const auto last = std::upper_bound(first, values_.end(), hi) - 1;
    present.emplace_back(*first, *last);
  }
  index::MergeRanges(&present);
  return present;
}

uint64_t FilterSnapshot::CountPresentValues(
    const std::vector<std::pair<int64_t, int64_t>>& ranges) const {
  uint64_t count = 0;
  for (const auto& [lo, hi] : ranges) {
    const auto first = std::lower_bound(values_.begin(), values_.end(), lo);
    const auto last = std::upper_bound(first, values_.end(), hi);
    count += static_cast<uint64_t>(last - first);
  }
  return count;
}

RowSpan FilterSnapshot::RowsForValue(int64_t value) const {
  const size_t k = static_cast<size_t>(
      std::upper_bound(block_first_.begin(), block_first_.end(), value) -
      block_first_.begin());
  if (k == 0) return RowSpan();
  const RowBlock& block = *blocks_[k - 1];
  const auto it =
      std::lower_bound(block.values.begin(), block.values.end(), value);
  if (it == block.values.end() || *it != value) return RowSpan();
  return block.Span(static_cast<size_t>(it - block.values.begin()));
}

geo::Mbr FilterSnapshot::ValueMbr(int64_t value) const {
  const size_t i = has_columns_ ? Find(value) : kNpos;
  return i == kNpos ? geo::Mbr() : mbrs_[i].ToMbr();
}

geo::Mbr FilterSnapshot::RangeUnionMbr(size_t first, size_t last) const {
  QuantizedMbr acc = EmptyQuantized();
  const size_t n = values_.size();
  size_t l = first + n;
  size_t r = last + n + 1;
  while (l < r) {
    if (l & 1) UnionInto(&acc, seg_[l++]);
    if (r & 1) UnionInto(&acc, seg_[--r]);
    l >>= 1;
    r >>= 1;
  }
  return acc.ToMbr();
}

bool FilterSnapshot::AllRowsFar(const RowSpan& rows,
                                const geo::Mbr& query_mbr, double eps,
                                size_t* visited) {
  for (size_t r = 0; r < rows.count; ++r) {
    ++*visited;
    if (geo::MinEdgeToRegionDistance(query_mbr, rows.rows[r].mbr.ToMbr()) <=
        eps) {
      return false;
    }
  }
  return rows.count > 0;
}

ProbeResult FilterSnapshot::ProbeValue(int64_t value,
                                       const geo::Mbr& query_mbr, double eps,
                                       bool check_rows,
                                       ProbeStats* stats) const {
  const size_t i = Find(value);
  if (i == kNpos) {
    ++stats->elements_pruned;
    return ProbeResult::kAbsent;
  }
  if (!has_columns_) return ProbeResult::kKeep;
  if (geo::MinEdgeToRegionDistance(query_mbr, mbrs_[i].ToMbr()) > eps) {
    ++stats->mbr_pruned;
    return ProbeResult::kMbrPruned;
  }
  if (check_rows) {
    const RowSpan rows = RowsForValue(value);
    size_t visited = 0;
    if (AllRowsFar(rows, query_mbr, eps, &visited)) {
      stats->fingerprint_skips += rows.count;
      return ProbeResult::kFingerprintPruned;
    }
  }
  return ProbeResult::kKeep;
}

ProbeResult FilterSnapshot::ProbeSubtree(int64_t lo, int64_t hi,
                                         const geo::Mbr& query_mbr, double eps,
                                         ProbeStats* stats) const {
  const auto first = std::lower_bound(values_.begin(), values_.end(), lo);
  const auto last = std::upper_bound(first, values_.end(), hi);
  if (first == last) {
    ++stats->elements_pruned;
    return ProbeResult::kAbsent;
  }
  if (!has_columns_) return ProbeResult::kKeep;
  // The union box can only be closer to the query than each member box,
  // so a bound computed on it under-estimates — pruning on it is sound.
  const size_t i0 = static_cast<size_t>(first - values_.begin());
  const size_t i1 = static_cast<size_t>(last - values_.begin());
  if (geo::MinEdgeToRegionDistance(query_mbr, RangeUnionMbr(i0, i1 - 1)) >
      eps) {
    ++stats->mbr_pruned;
    return ProbeResult::kMbrPruned;
  }
  return ProbeResult::kKeep;
}

namespace {

/// Shared range-walk for ProbeRanges / ProbeRangesWindow. `keep` decides
/// per present value index; it may charge extra visits (row walks)
/// through `visited` so control polling covers them too.
template <typename KeepFn>
Status WalkRanges(const std::vector<int64_t>& values,
                  const std::vector<std::pair<int64_t, int64_t>>& ranges,
                  const QueryContext* control, KeepFn keep, ProbeStats* stats,
                  std::vector<std::pair<int64_t, int64_t>>* surviving) {
  surviving->clear();
  size_t visited = 0;
  for (const auto& range : ranges) {
    const size_t i0 = static_cast<size_t>(
        std::lower_bound(values.begin(), values.end(), range.first) -
        values.begin());
    const size_t i1 = static_cast<size_t>(
        std::upper_bound(values.begin() + i0, values.end(), range.second) -
        values.begin());
    // Every candidate value with no data is skipped without any store
    // contact — the value set's basic dividend.
    stats->elements_pruned +=
        static_cast<uint64_t>(range.second - range.first + 1) - (i1 - i0);
    // Survivors are emitted as maximal runs of kept present values: a
    // *pruned* present value splits the run (that split is what turns
    // the prune into bytes not read), while absent values between kept
    // ones never split — scanning across missing keys costs nothing, so
    // splitting there would only multiply scan setup. Runs collapse to
    // [first-kept, last-kept], like IntersectWithDirectory.
    bool run_open = false;
    int64_t run_first = 0;
    int64_t run_last = 0;
    for (size_t i = i0; i < i1; ++i) {
      if (++visited % FilterSnapshot::kControlCheckStride == 0 &&
          control != nullptr) {
        Status control_status = control->Check();
        if (!control_status.ok()) return control_status;
      }
      const int64_t v = values[i];
      if (keep(i, &visited)) {
        if (!run_open) {
          run_open = true;
          run_first = v;
        }
        run_last = v;
      } else if (run_open) {
        surviving->emplace_back(run_first, run_last);
        run_open = false;
      }
    }
    if (run_open) surviving->emplace_back(run_first, run_last);
  }
  return Status::OK();
}

}  // namespace

Status FilterSnapshot::ProbeRanges(
    const std::vector<std::pair<int64_t, int64_t>>& ranges,
    const geo::Mbr& query_mbr, double eps, bool check_rows,
    const QueryContext* control,
    std::vector<std::pair<int64_t, int64_t>>* surviving,
    ProbeStats* stats) const {
  auto keep = [&](size_t i, size_t* visited) {
    if (!has_columns_) return true;
    if (geo::MinEdgeToRegionDistance(query_mbr, mbrs_[i].ToMbr()) > eps) {
      ++stats->mbr_pruned;
      return false;
    }
    if (check_rows) {
      const RowSpan rows = RowsForValue(values_[i]);
      if (AllRowsFar(rows, query_mbr, eps, visited)) {
        stats->fingerprint_skips += rows.count;
        return false;
      }
    }
    return true;
  };
  return WalkRanges(values_, ranges, control, keep, stats, surviving);
}

Status FilterSnapshot::ProbeRangesWindow(
    const std::vector<std::pair<int64_t, int64_t>>& ranges,
    const geo::Mbr& window, const QueryContext* control,
    std::vector<std::pair<int64_t, int64_t>>* surviving,
    ProbeStats* stats) const {
  auto keep = [&](size_t i, size_t* /*visited*/) {
    if (!has_columns_) return true;
    if (!mbrs_[i].ToMbr().Intersects(window)) {
      ++stats->mbr_pruned;
      return false;
    }
    return true;
  };
  return WalkRanges(values_, ranges, control, keep, stats, surviving);
}

std::shared_ptr<const FilterSnapshot> FilterTier::Merge(
    const FilterSnapshot* base, const std::vector<FilterRowData>& rows,
    bool columns) {
  static const FilterSnapshot kEmpty;
  const FilterSnapshot& old = base != nullptr ? *base : kEmpty;
  auto by_value = [](const FilterRowData& row, int64_t value) {
    return row.index_value < value;
  };
  // Size the per-value arrays exactly, so memory_bytes() counts no slack.
  size_t n = old.values_.size();
  for (size_t r = 0; r < rows.size(); ++r) {
    const int64_t value = rows[r].index_value;
    if ((r == 0 || value != rows[r - 1].index_value) &&
        !std::binary_search(old.values_.begin(), old.values_.end(), value)) {
      ++n;
    }
  }
  auto out = std::make_shared<FilterSnapshot>();
  out->has_columns_ = columns;
  out->values_.reserve(n);
  if (columns) out->mbrs_.reserve(n);

  // Walk the old row blocks (without columns: one span over all values).
  // A block no pending row falls into is shared as it is; a touched one
  // is merged value by value into fresh blocks.
  std::shared_ptr<RowBlock> block;  // being filled
  auto flush = [&] {
    if (block != nullptr) out->blocks_.push_back(std::move(block));
    block = nullptr;
  };
  auto append_row = [&](int64_t tid, const QuantizedMbr& mbr,
                        const uint32_t* sig, size_t sig_len) {
    block->rows.push_back(RowRecord{tid, mbr});
    // A signature of the wrong length is padded with ~0u, which only
    // ever matches other padding — it cannot fake similarity.
    for (size_t h = 0; h < kHashes; ++h) {
      block->sigs.push_back(h < sig_len ? sig[h] : ~uint32_t{0});
    }
  };
  size_t i = 0;  // next old value
  size_t r = 0;  // next pending row
  const size_t spans = std::max<size_t>(old.blocks_.size(), 1);
  for (size_t k = 0; k < spans; ++k) {
    const RowBlock* old_block =
        k < old.blocks_.size() ? old.blocks_[k].get() : nullptr;
    const size_t i_end = old_block != nullptr
                             ? i + old_block->values.size()
                             : old.values_.size();
    const size_t r_end =
        k + 1 < old.blocks_.size()
            ? static_cast<size_t>(
                  std::lower_bound(rows.begin() + r, rows.end(),
                                   old.block_first_[k + 1], by_value) -
                  rows.begin())
            : rows.size();
    if (old_block != nullptr && r == r_end) {
      out->values_.insert(out->values_.end(), old.values_.begin() + i,
                          old.values_.begin() + i_end);
      out->mbrs_.insert(out->mbrs_.end(), old.mbrs_.begin() + i,
                        old.mbrs_.begin() + i_end);
      out->blocks_.push_back(old.blocks_[k]);
      i = i_end;
      continue;
    }
    size_t span_values = i_end - i;
    for (size_t x = r; x < r_end; ++x) {
      if (x == r || rows[x].index_value != rows[x - 1].index_value) {
        ++span_values;
      }
    }
    const size_t cut =
        span_values > 2 * kBlockValues ? kBlockValues : 2 * kBlockValues;
    size_t j = 0;  // index of old value i inside old_block
    while (i < i_end || r < r_end) {
      const bool from_old =
          i < i_end && (r == r_end || old.values_[i] <= rows[r].index_value);
      const int64_t value = from_old ? old.values_[i] : rows[r].index_value;
      size_t v_end = r;
      while (v_end < r_end && rows[v_end].index_value == value) ++v_end;
      out->values_.push_back(value);
      if (columns) {
        QuantizedMbr aggregate = from_old ? old.mbrs_[i] : EmptyQuantized();
        for (size_t x = r; x < v_end; ++x) {
          UnionInto(&aggregate, QuantizeOutward(rows[x].mbr));
        }
        out->mbrs_.push_back(aggregate);
        if (block == nullptr || block->values.size() == cut) {
          flush();
          block = std::make_shared<RowBlock>();
          block->values.reserve(cut);
          block->offsets.reserve(cut + 1);
          block->offsets.push_back(0);
        }
        block->values.push_back(value);
        // Both record lists are sorted by tid: merge them.
        const RowSpan have = from_old ? old_block->Span(j) : RowSpan();
        size_t b = 0;
        size_t x = r;
        while (b < have.count || x < v_end) {
          if (x == v_end ||
              (b < have.count && have.rows[b].tid < rows[x].tid)) {
            append_row(have.rows[b].tid, have.rows[b].mbr,
                       have.sigs + b * kHashes, kHashes);
            ++b;
            continue;
          }
          const int64_t tid = rows[x].tid;
          while (x + 1 < v_end && rows[x + 1].tid == tid) ++x;  // newest wins
          if (b < have.count && have.rows[b].tid == tid) ++b;  // replaced
          append_row(tid, QuantizeOutward(rows[x].mbr),
                     rows[x].fingerprint.data(), rows[x].fingerprint.size());
          ++x;
        }
        block->offsets.push_back(static_cast<uint32_t>(block->rows.size()));
      }
      if (from_old) {
        ++i;
        ++j;
      }
      r = v_end;
    }
    flush();
  }

  out->memory_bytes_ = HeapBytes(out->values_) + HeapBytes(out->mbrs_);
  if (columns) {
    const size_t count = out->values_.size();
    out->seg_.resize(2 * count);
    std::copy(out->mbrs_.begin(), out->mbrs_.end(),
              out->seg_.begin() + count);
    for (size_t x = count; x-- > 1;) {
      out->seg_[x] = out->seg_[2 * x];
      UnionInto(&out->seg_[x], out->seg_[2 * x + 1]);
    }
    out->block_first_.reserve(out->blocks_.size());
    for (const auto& b : out->blocks_) {
      out->block_first_.push_back(b->values.front());
      out->memory_bytes_ += sizeof(RowBlock) + HeapBytes(b->values) +
                            HeapBytes(b->offsets) + HeapBytes(b->rows) +
                            HeapBytes(b->sigs);
    }
    out->memory_bytes_ += HeapBytes(out->seg_) + HeapBytes(out->blocks_) +
                          HeapBytes(out->block_first_);
  }
  return out;
}

FilterTier::FilterTier(bool columns)
    : columns_(columns), snapshot_(Merge(nullptr, {}, columns)) {}

void FilterTier::AddRows(std::vector<FilterRowData> rows) {
  if (rows.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) {
    pending_ = std::move(rows);
  } else {
    pending_.insert(pending_.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  // A bulk load with no queries in between would otherwise hold every
  // row twice and leave one huge merge to the first query. Merging once
  // the pending rows outnumber the published values keeps both bounded
  // at an amortized O(1) merge cost per value.
  if (pending_.size() >= std::max(kMinMergeRows, snapshot_->values().size())) {
    PublishLocked();
  }
}

namespace {

/// Values on which two images disagree: present in only one, or (with
/// columns) holding different tid sets.
uint64_t CountMismatches(const FilterSnapshot& a, const FilterSnapshot& b) {
  std::vector<int64_t> all;
  std::set_union(a.values().begin(), a.values().end(), b.values().begin(),
                 b.values().end(), std::back_inserter(all));
  auto same_tid = [](const RowRecord& x, const RowRecord& y) {
    return x.tid == y.tid;
  };
  uint64_t mismatches = 0;
  for (const int64_t value : all) {
    const RowSpan ra = a.RowsForValue(value);
    const RowSpan rb = b.RowsForValue(value);
    if (std::binary_search(a.values().begin(), a.values().end(), value) !=
            std::binary_search(b.values().begin(), b.values().end(), value) ||
        !std::equal(ra.rows, ra.rows + ra.count, rb.rows, rb.rows + rb.count,
                    same_tid)) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

uint64_t FilterTier::RebuildFrom(std::vector<FilterRowData> rows) {
  SortRows(&rows);
  auto fresh = Merge(nullptr, rows, columns_);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t mismatches = CountMismatches(*PublishLocked(), *fresh);
  snapshot_ = std::move(fresh);
  return mismatches;
}

std::shared_ptr<const FilterSnapshot> FilterTier::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PublishLocked();
}

std::shared_ptr<const FilterSnapshot> FilterTier::PublishLocked() const {
  if (!pending_.empty()) {
    SortRows(&pending_);
    snapshot_ = Merge(snapshot_.get(), pending_, columns_);
    pending_.clear();
  }
  return snapshot_;
}

}  // namespace filter
}  // namespace trass
