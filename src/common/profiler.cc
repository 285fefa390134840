#include "src/common/profiler.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "src/common/string_util.h"

namespace seastar {
namespace {

// Minimal JSON string escaping for our own span names (op names, dataset
// names, file paths).
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
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
      default:
        if (static_cast<unsigned char>(c) >= 0x20) {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

int64_t Profiler::Begin(std::string name, std::string category) {
  if (!enabled_) {
    return -1;
  }
  ProfileEvent event;
  event.name = std::move(name);
  event.category = std::move(category);
  event.start_us = clock_.ElapsedMicros();
  events_.push_back(std::move(event));
  return static_cast<int64_t>(events_.size()) - 1;
}

ProfileEvent* Profiler::Mutable(int64_t token) {
  if (!enabled_ || token < 0 || token >= static_cast<int64_t>(events_.size())) {
    return nullptr;
  }
  return &events_[static_cast<size_t>(token)];
}

void Profiler::End(int64_t token) {
  ProfileEvent* event = Mutable(token);
  if (event != nullptr) {
    event->dur_us = clock_.ElapsedMicros() - event->start_us;
  }
}

double Profiler::TotalUs(const std::string& category) const {
  double total = 0.0;
  for (const ProfileEvent& event : events_) {
    if (event.category == category && event.dur_us >= 0.0) {
      total += event.dur_us;
    }
  }
  return total;
}

std::string Profiler::ChromeTraceJson() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const ProfileEvent& event : events_) {
    if (event.dur_us < 0.0) {
      continue;  // Never closed; keep the trace well-formed.
    }
    if (!first) {
      os << ",";
    }
    first = false;
    os << "\n{\"name\":\"" << JsonEscape(event.name) << "\",\"cat\":\""
       << JsonEscape(event.category) << "\",\"ph\":\"X\",\"ts\":" << FormatDouble(event.start_us, 3)
       << ",\"dur\":" << FormatDouble(event.dur_us, 3) << ",\"pid\":0,\"tid\":0,\"args\":{";
    bool first_arg = true;
    const auto arg = [&](const char* key, int64_t value) {
      if (value == 0) {
        return;
      }
      if (!first_arg) {
        os << ",";
      }
      first_arg = false;
      os << "\"" << key << "\":" << value;
    };
    arg("edges", event.edges);
    arg("bytes_materialized", event.bytes_materialized);
    arg("fat_groups", event.fat_groups);
    arg("fat_group_size", event.fat_group_size);
    arg("num_blocks", event.num_blocks);
    arg("block_size", event.block_size);
    arg("dispatches", event.dispatches);
    arg("kernel_launches", event.kernel_launches);
    arg("alloc_delta_bytes", event.alloc_delta_bytes);
    arg("peak_delta_bytes", event.peak_delta_bytes);
    arg("plan_cache_hits", event.plan_cache_hits);
    arg("plan_cache_misses", event.plan_cache_misses);
    arg("pool_hits", event.pool_hits);
    arg("pool_misses", event.pool_misses);
    const auto str_arg = [&](const char* key, const std::string& value) {
      if (value.empty()) {
        return;
      }
      if (!first_arg) {
        os << ",";
      }
      first_arg = false;
      os << "\"" << key << "\":\"" << JsonEscape(value) << "\"";
    };
    str_arg("schedule", event.schedule);
    str_arg("simd_isa", event.simd_isa);
    os << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

bool Profiler::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const std::string json = ChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  std::fclose(file);
  return written == json.size();
}

std::string Profiler::SummaryTable() const {
  struct Row {
    int64_t count = 0;
    double total_us = 0.0;
    int64_t edges = 0;
    int64_t bytes = 0;
    int64_t dispatches = 0;
    int64_t launches = 0;
    int64_t plan_hits = 0;
    int64_t plan_misses = 0;
    int64_t pool_hits = 0;
    int64_t pool_misses = 0;
    std::string simd_isa;
  };
  // Keyed by (category, name); std::map gives a stable report order.
  std::map<std::pair<std::string, std::string>, Row> rows;
  for (const ProfileEvent& event : events_) {
    if (event.dur_us < 0.0) {
      continue;
    }
    Row& row = rows[{event.category, event.name}];
    ++row.count;
    row.total_us += event.dur_us;
    row.edges += event.edges;
    row.bytes += event.bytes_materialized;
    row.dispatches += event.dispatches;
    row.launches += event.kernel_launches;
    row.plan_hits += event.plan_cache_hits;
    row.plan_misses += event.plan_cache_misses;
    row.pool_hits += event.pool_hits;
    row.pool_misses += event.pool_misses;
    if (row.simd_isa.empty()) {
      row.simd_isa = event.simd_isa;
    }
  }

  std::ostringstream os;
  char line[360];
  std::snprintf(line, sizeof(line), "%-8s %-36s %7s %12s %10s %14s %12s %10s %9s %9s %6s\n",
                "category", "name", "count", "total ms", "avg ms", "edges", "mat bytes",
                "launches", "plan h/m", "pool hit%", "isa");
  os << line;
  os << std::string(137, '-') << "\n";
  for (const auto& [key, row] : rows) {
    // "plan h/m" and "pool hit%" only apply to spans that recorded the
    // caching counters (exec runs, epochs); blank elsewhere.
    char plan[48] = "";
    if (row.plan_hits + row.plan_misses > 0) {
      std::snprintf(plan, sizeof(plan), "%lld/%lld", static_cast<long long>(row.plan_hits),
                    static_cast<long long>(row.plan_misses));
    }
    char pool[32] = "";
    if (row.pool_hits + row.pool_misses > 0) {
      std::snprintf(pool, sizeof(pool), "%5.1f",
                    100.0 * static_cast<double>(row.pool_hits) /
                        static_cast<double>(row.pool_hits + row.pool_misses));
    }
    std::snprintf(line, sizeof(line),
                  "%-8s %-36s %7lld %12.3f %10.4f %14lld %12s %10lld %9s %9s %6s\n",
                  key.first.c_str(), key.second.substr(0, 36).c_str(),
                  static_cast<long long>(row.count), row.total_us / 1e3,
                  row.total_us / 1e3 / static_cast<double>(std::max<int64_t>(1, row.count)),
                  static_cast<long long>(row.edges),
                  HumanBytes(static_cast<uint64_t>(std::max<int64_t>(0, row.bytes))).c_str(),
                  static_cast<long long>(row.launches), plan, pool,
                  row.simd_isa.c_str());
    os << line;
  }
  return os.str();
}

}  // namespace seastar
