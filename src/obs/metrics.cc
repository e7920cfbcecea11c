#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace craqr {
namespace obs {

namespace internal {
std::atomic<bool> g_enabled{true};

namespace {

static_assert(kStripes < 32, "stripe leases are one 32-bit mask");
constexpr std::uint32_t kAllStripes = (1u << kStripes) - 1;

/// Bit i set = stripe slot i is leased to a live thread.
std::atomic<std::uint32_t> g_stripe_leases{0};

/// Hands the owning thread's slot back when the thread exits. A write
/// from a later thread-exit destructor then goes to the shared stripe
/// rather than leasing anew. The release orders this thread's stripe
/// writes before the next lessee's (it acquires the slot through the same
/// atomic), so the slot keeps a single writer at a time.
struct StripeLease {
  std::uint32_t slot = kNoStripe;
  ~StripeLease() {
    if (slot != kNoStripe) {
      g_stripe_leases.fetch_and(~(1u << slot), std::memory_order_acq_rel);
    }
    t_stripe = kSharedStripe;
  }
};

}  // namespace

std::uint32_t AcquireStripe() {
  static thread_local StripeLease lease;
  std::uint32_t leased = g_stripe_leases.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint32_t free = ~leased & kAllStripes;
    if (free == 0) {
      // More live writer threads than slots: write the shared stripe.
      t_stripe = kSharedStripe;
      return t_stripe;
    }
    const auto slot = static_cast<std::uint32_t>(__builtin_ctz(free));
    if (g_stripe_leases.compare_exchange_weak(leased, leased | (1u << slot),
                                              std::memory_order_acq_rel)) {
      lease.slot = slot;
      t_stripe = slot;
      return slot;
    }
  }
}

}  // namespace internal

std::size_t StripesInUse() {
  return static_cast<std::size_t>(__builtin_popcount(
      internal::g_stripe_leases.load(std::memory_order_acquire)));
}

double HistogramSnapshot::Mean() const {
  return count == 0 ? 0.0
                    : static_cast<double>(sum) / static_cast<double>(count);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      const std::uint64_t ub = LogHistogram::BucketUpperBound(i);
      return static_cast<double>(std::min(ub, max));
    }
  }
  return static_cast<double>(max);
}

RunningStats HistogramSnapshot::ToRunningStats() const {
  RunningStats stats;
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) {
      continue;
    }
    // Representative value: 0 for the zero bucket, otherwise the bucket
    // midpoint (lower + upper) / 2 — a bucket-resolution approximation.
    double rep = 0.0;
    if (i > 0) {
      const double lo = static_cast<double>(
          static_cast<std::uint64_t>(1) << (i - 1));
      const double hi =
          static_cast<double>(LogHistogram::BucketUpperBound(i));
      rep = (lo + hi) / 2.0;
    }
    stats.AddWeighted(rep, buckets[i]);
  }
  return stats;
}

LogHistogram::~LogHistogram() {
  for (auto& stripe : stripes_) {
    delete stripe.load(std::memory_order_relaxed);
  }
}

LogHistogram::Stripe& LogHistogram::AddStripe(std::uint32_t index) {
  auto* fresh = new Stripe();
  Stripe* installed = nullptr;
  if (!stripes_[index].compare_exchange_strong(installed, fresh,
                                               std::memory_order_acq_rel)) {
    delete fresh;
    return *installed;
  }
  return *fresh;
}

HistogramSnapshot LogHistogram::Snapshot() const {
  HistogramSnapshot snap;
  for (const auto& allocated : stripes_) {
    const Stripe* stripe = allocated.load(std::memory_order_acquire);
    if (stripe == nullptr) {
      continue;
    }
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
      const std::uint64_t n =
          stripe->buckets[i].load(std::memory_order_relaxed);
      snap.buckets[i] += n;
      snap.count += n;
    }
    snap.sum += stripe->sum.load(std::memory_order_relaxed);
    snap.max =
        std::max(snap.max, stripe->max.load(std::memory_order_relaxed));
  }
  return snap;
}

std::uint64_t CounterBank::Total() const {
  std::uint64_t total = 0;
  for (const auto& slot : slots_) {
    total += slot.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<std::pair<std::size_t, std::uint64_t>> CounterBank::TopK(
    std::size_t k) const {
  std::vector<std::pair<std::size_t, std::uint64_t>> nonzero;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t v = slots_[i].load(std::memory_order_relaxed);
    if (v > 0) {
      nonzero.emplace_back(i, v);
    }
  }
  const std::size_t take = std::min(k, nonzero.size());
  std::partial_sort(nonzero.begin(), nonzero.begin() + take, nonzero.end(),
                    [](const auto& a, const auto& b) {
                      if (a.second != b.second) {
                        return a.second > b.second;
                      }
                      return a.first < b.first;
                    });
  nonzero.resize(take);
  return nonzero;
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

Counter* Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_by_name_.find(name);
  if (it == counters_by_name_.end()) {
    counters_.emplace_back();
    it = counters_by_name_.emplace(name, &counters_.back()).first;
  }
  return it->second;
}

Gauge* Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_by_name_.find(name);
  if (it == gauges_by_name_.end()) {
    gauges_.emplace_back();
    it = gauges_by_name_.emplace(name, &gauges_.back()).first;
  }
  return it->second;
}

LogHistogram* Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_by_name_.find(name);
  if (it == histograms_by_name_.end()) {
    histograms_.emplace_back();
    it = histograms_by_name_.emplace(name, &histograms_.back()).first;
  }
  return it->second;
}

CounterBank* Registry::GetCounterBank(const std::string& name,
                                      std::size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = banks_by_name_.find(name);
  if (it != banks_by_name_.end() && it->second->size() >= size) {
    return it->second;
  }
  banks_.emplace_back(name, size);
  CounterBank* bank = &banks_.back();
  banks_by_name_[name] = bank;  // old (smaller) bank stays alive unlisted
  return bank;
}

namespace {

// Formats a double for JSON: finite, shortest-ish representation.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

// Prometheus metric names allow [a-zA-Z0-9_:] only.
std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  return out;
}

void AppendHistogramJson(std::ostringstream& os, const std::string& name,
                         const HistogramSnapshot& snap) {
  const RunningStats approx = snap.ToRunningStats();
  os << "\"" << name << "\": {\"count\": " << snap.count
     << ", \"sum\": " << snap.sum
     << ", \"mean\": " << JsonNumber(snap.Mean())
     << ", \"stddev\": " << JsonNumber(approx.Stddev())
     << ", \"p50\": " << JsonNumber(snap.Quantile(0.5))
     << ", \"p95\": " << JsonNumber(snap.Quantile(0.95))
     << ", \"p99\": " << JsonNumber(snap.Quantile(0.99))
     << ", \"max\": " << snap.max << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
    if (snap.buckets[i] == 0) {
      continue;
    }
    if (!first) {
      os << ", ";
    }
    first = false;
    os << "[" << LogHistogram::BucketUpperBound(i) << ", "
       << snap.buckets[i] << "]";
  }
  os << "]}";
}

}  // namespace

std::string Registry::SnapshotJson(std::size_t bank_top_k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_by_name_) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << counter->value();
    first = false;
  }
  os << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_by_name_) {
    os << (first ? "" : ", ") << "\"" << name << "\": " << gauge->value();
    first = false;
  }
  os << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_by_name_) {
    os << (first ? "" : ",") << "\n    ";
    AppendHistogramJson(os, name, histogram->Snapshot());
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n  \"banks\": {";
  first = true;
  for (const auto& [name, bank] : banks_by_name_) {
    os << (first ? "" : ",") << "\n    \"" << name
       << "\": {\"size\": " << bank->size()
       << ", \"total\": " << bank->Total() << ", \"top\": [";
    const auto top = bank->TopK(bank_top_k);
    for (std::size_t i = 0; i < top.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "[" << top[i].first << ", "
         << top[i].second << "]";
    }
    os << "]}";
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string Registry::SnapshotPrometheus(std::size_t bank_top_k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_by_name_) {
    const std::string pname = PromName(name);
    os << "# TYPE " << pname << " counter\n"
       << pname << " " << counter->value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_by_name_) {
    const std::string pname = PromName(name);
    os << "# TYPE " << pname << " gauge\n"
       << pname << " " << gauge->value() << "\n";
  }
  for (const auto& [name, histogram] : histograms_by_name_) {
    const std::string pname = PromName(name);
    const HistogramSnapshot snap = histogram->Snapshot();
    os << "# TYPE " << pname << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < HistogramSnapshot::kNumBuckets; ++i) {
      if (snap.buckets[i] == 0) {
        continue;
      }
      cumulative += snap.buckets[i];
      os << pname << "_bucket{le=\"" << LogHistogram::BucketUpperBound(i)
         << "\"} " << cumulative << "\n";
    }
    os << pname << "_bucket{le=\"+Inf\"} " << snap.count << "\n"
       << pname << "_sum " << snap.sum << "\n"
       << pname << "_count " << snap.count << "\n";
  }
  for (const auto& [name, bank] : banks_by_name_) {
    const std::string pname = PromName(name);
    os << "# TYPE " << pname << " counter\n"
       << pname << "_total " << bank->Total() << "\n";
    for (const auto& [index, value] : bank->TopK(bank_top_k)) {
      os << pname << "{cell=\"" << index << "\"} " << value << "\n";
    }
  }
  return os.str();
}

std::string SnapshotJson(std::size_t bank_top_k) {
  return Registry::Global().SnapshotJson(bank_top_k);
}

std::string SnapshotPrometheus(std::size_t bank_top_k) {
  return Registry::Global().SnapshotPrometheus(bank_top_k);
}

}  // namespace obs
}  // namespace craqr
