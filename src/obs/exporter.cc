#include "obs/exporter.h"

#include <cmath>
#include <cstdio>

#include "obs/attribution.h"

namespace apc {
namespace obs {

namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderNum(double value) {
  if (!std::isfinite(value)) return "null";  // JSON has no inf/nan
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

/// The "attribution" section: per-source charge splits plus the summed
/// totals, from one AttributionTable snapshot (consistent per source).
std::string RenderAttribution(const AttributionTable& attribution) {
  std::string out = ",\n  \"attribution\": {";
  out += "\n    \"sources\": [";
  std::vector<AttributionTable::SourceStats> sources = attribution.Snapshot();
  for (size_t i = 0; i < sources.size(); ++i) {
    const AttributionTable::SourceStats& s = sources[i];
    if (i > 0) out += ",";
    out += "\n      {\"id\": " + std::to_string(s.id);
    out += ", \"value_refreshes\": " + std::to_string(s.value_refreshes);
    out += ", \"query_refreshes\": " + std::to_string(s.query_refreshes);
    out += ", \"query_reader_refreshes\": " +
           std::to_string(s.query_reader_refreshes);
    out += ", \"subscription_reader_refreshes\": " +
           std::to_string(s.subscription_reader_refreshes);
    out += ", \"unattributed_query_refreshes\": " +
           std::to_string(s.unattributed_query_refreshes);
    out += ", \"value_cost\": " + RenderNum(s.value_cost);
    out += ", \"query_cost\": " + RenderNum(s.query_cost);
    out += ", \"last_width\": " + RenderNum(s.last_width);
    out += ", \"last_now\": " + std::to_string(s.last_now);
    out += ", \"width_history\": [";
    for (size_t p = 0; p < s.width_history.size(); ++p) {
      if (p > 0) out += ", ";
      out += "[" + std::to_string(s.width_history[p].now) + ", " +
             RenderNum(s.width_history[p].width) + "]";
    }
    out += "]}";
  }
  out += sources.empty() ? "]" : "\n    ]";
  AttributionTable::Totals totals = attribution.TotalsSnapshot();
  out += ",\n    \"totals\": {";
  out += "\"value_refreshes\": " + std::to_string(totals.value_refreshes);
  out += ", \"query_refreshes\": " + std::to_string(totals.query_refreshes);
  out += ", \"query_reader_refreshes\": " +
         std::to_string(totals.query_reader_refreshes);
  out += ", \"subscription_reader_refreshes\": " +
         std::to_string(totals.subscription_reader_refreshes);
  out += ", \"unattributed_query_refreshes\": " +
         std::to_string(totals.unattributed_query_refreshes);
  out += ", \"value_cost\": " + RenderNum(totals.value_cost);
  out += ", \"query_cost\": " + RenderNum(totals.query_cost);
  out += "}";
  out += "\n  }";
  return out;
}

}  // namespace

SnapshotExporter::SnapshotExporter(const MetricsRegistry* registry)
    : registry_(registry) {}

SnapshotExporter::~SnapshotExporter() { Stop(); }

std::string SnapshotExporter::ToJson() const {
  std::string out = "{\n";
  out += "  \"schema\": \"apcache-obs-v1\",\n";
  // Constant since the layer is always compiled in; kept so the
  // apcache-obs-v1 document keeps its shape.
  out += "  \"obs_enabled\": 1";
  MetricsRegistry::Snapshot snap = registry_->TakeSnapshot();
  out += ",\n  \"counters\": {";
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    \"" + EscapeJson(snap.counters[i].first) +
           "\": " + std::to_string(snap.counters[i].second);
  }
  out += snap.counters.empty() ? "}" : "\n  }";
  out += ",\n  \"gauges\": {";
  for (size_t i = 0; i < snap.gauges.size(); ++i) {
    if (i > 0) out += ",";
    out += "\n    \"" + EscapeJson(snap.gauges[i].first) +
           "\": " + std::to_string(snap.gauges[i].second);
  }
  out += snap.gauges.empty() ? "}" : "\n  }";
  out += ",\n  \"histograms\": {";
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& entry = snap.histograms[i];
    if (i > 0) out += ",";
    out += "\n    \"" + EscapeJson(entry.name) + "\": {";
    out += "\"count\": " + std::to_string(entry.data.total);
    out += ", \"p50\": " + RenderNum(entry.data.Quantile(0.50));
    out += ", \"p90\": " + RenderNum(entry.data.Quantile(0.90));
    out += ", \"p99\": " + RenderNum(entry.data.Quantile(0.99));
    // Only occupied bins are listed; their counts sum to "count" (the
    // snapshot's consistency invariant).
    out += ", \"bins\": [";
    bool first = true;
    for (size_t b = 0; b < entry.data.counts.size(); ++b) {
      if (entry.data.counts[b] == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "[" + RenderNum(entry.data.edges[b]) + ", " +
             RenderNum(entry.data.edges[b + 1]) + ", " +
             std::to_string(entry.data.counts[b]) + "]";
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "}" : "\n  }";
  if (attribution_ != nullptr) out += RenderAttribution(*attribution_);
  out += "\n}";
  return out;
}

bool SnapshotExporter::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string json = ToJson();
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fputc('\n', f) != EOF && ok;
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

void SnapshotExporter::StartBackground(const std::string& path,
                                       int64_t interval_ms) {
  MutexLock lock(mu_);
  if (running_) return;
  path_ = path;
  interval_ms_ = interval_ms < 1 ? 1 : interval_ms;
  stop_ = false;
  running_ = true;
  worker_ = std::thread([this] { BackgroundLoop(); });
}

void SnapshotExporter::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.NotifyAll();
  worker_.join();
  MutexLock lock(mu_);
  running_ = false;
}

int64_t SnapshotExporter::exports_written() const {
  MutexLock lock(mu_);
  return exports_written_;
}

void SnapshotExporter::BackgroundLoop() {
  // Two scoped critical sections per cycle with the file write between
  // them, unlocked. WaitFor carries no predicate (predicate lambdas defeat
  // clang's analysis — see util/mutex.h); a spurious wake just runs one
  // extra export, which is harmless, and stop_ is re-checked under mu_ at
  // both the top and the bottom of the cycle.
  while (true) {
    std::string path;
    int64_t interval = 0;
    {
      MutexLock lock(mu_);
      if (stop_) return;
      path = path_;
      interval = interval_ms_;
    }
    bool wrote = WriteFile(path);
    {
      MutexLock lock(mu_);
      if (wrote) ++exports_written_;
      if (stop_) return;
      cv_.WaitFor(mu_, interval);
    }
  }
}

}  // namespace obs
}  // namespace apc
