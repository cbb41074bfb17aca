#include "service/request.hpp"

#include <cstdio>
#include <sstream>

namespace deft {

namespace {

/// Most errors one rejection row lists: validation stops reading a
/// request at its fifth bad line.
constexpr std::size_t kMaxErrors = 5;

/// Applies a service-level `x_` key (they are not part of the core config
/// grammar) to `out`; throws on an unknown key or value.
void apply_service_key(const ConfigLine& line, ValidatedRequest& out) {
  require(line.key == "x_chaos", "unknown service key '" + line.key + "'");
  require(line.value.empty() || line.value == "throw",
          "x_chaos must be 'throw', got '" + line.value + "'");
  if (line.value == "throw") {
    out.chaos = ChaosMode::throw_in_worker;
  }
}

}  // namespace

ValidatedRequest validate_request(const std::string& text,
                                  const RunBudget& budget) {
  ValidatedRequest out;
  if (text.size() > budget.max_request_bytes) {
    out.errors.push_back(
        {0, "request exceeds " + std::to_string(budget.max_request_bytes) +
                " bytes (" + std::to_string(text.size()) + ")"});
    return out;  // oversized input is not handed to the parser at all
  }

  // One pass in line order: a bad line's error is recorded under its
  // number, and reading goes on with the next line.
  std::istringstream in(text);
  ConfigLine line;
  while (out.errors.size() < kMaxErrors) {
    try {
      if (!next_config_line(in, line)) {
        break;
      }
      if (line.key.starts_with("x_")) {
        apply_service_key(line, out);
      } else {
        apply_config_line(out.config, line);
      }
    } catch (const std::exception& e) {
      out.errors.push_back({line.number, e.what()});
    }
  }
  if (!out.ok()) {
    return out;
  }

  // Budget clamp: the run must be cycle-bounded no matter what the
  // request asked for. warmup + measure that alone bust the budget are a
  // rejection (clamping them would silently change the experiment);
  // drain and watchdog are operational tails, so they are clamped.
  SimKnobs& knobs = out.config.knobs;
  const Cycle core_cycles = knobs.warmup + knobs.measure;
  if (core_cycles > budget.max_cycles) {
    out.errors.push_back(
        {0, "warmup + measure = " + std::to_string(core_cycles) +
                " cycles exceeds the per-run budget of " +
                std::to_string(budget.max_cycles)});
    return out;
  }
  const Cycle drain_budget = budget.max_cycles - core_cycles;
  if (knobs.drain_max > drain_budget) {
    knobs.drain_max = drain_budget;
    out.budget_clamped = true;
  }
  if (knobs.watchdog_cycles > budget.max_cycles) {
    knobs.watchdog_cycles = budget.max_cycles;
    out.budget_clamped = true;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace deft
