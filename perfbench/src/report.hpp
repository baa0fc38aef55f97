// Named metrics with units, printed one per line for people and as the
// single JSON result line the benchmark ends with.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Adds (or overwrites) a metric; insertion order is print order.
  void set(const std::string& name, double value, const std::string& unit) {
    for (auto& m : metrics_) {
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit});
  }

  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const auto& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }

  void print_lines(const char* prefix) const {
    for (const auto& m : metrics_) {
      std::printf("%s %-36s %.6g %s\n", prefix, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  /// The result line. Values keep all their digits (%.17g); a non-finite
  /// value becomes null, which run.py rejects.
  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& m = metrics_[i];
      if (std::isfinite(m.value)) {
        std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      } else {
        std::snprintf(buf, sizeof(buf), "null");
      }
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
