#include "src/support/fault.h"

#include <cstdio>
#include <cstdlib>

#include "src/support/string_util.h"

namespace vc {

namespace {

// Deadline checks cost a clock read; amortize them over this many steps.
constexpr uint64_t kDeadlineCheckInterval = 1024;

// splitmix64 finalizer: spreads the low-entropy FNV state across all 64 bits
// so the uniform-threshold comparison below is unbiased.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

BudgetMeter::BudgetMeter(const ResourceBudget& budget)
    : step_limit_(budget.detect_step_limit) {
  if (budget.unit_deadline_seconds > 0.0) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(budget.unit_deadline_seconds));
  }
}

void BudgetMeter::Charge(uint64_t steps) {
  steps_ += steps;
  if (step_limit_ != 0 && steps_ > step_limit_) {
    throw BudgetExceededError("step budget exceeded (limit " +
                              std::to_string(step_limit_) + ")");
  }
  if (has_deadline_ && steps_ >= next_deadline_check_) {
    next_deadline_check_ = steps_ + kDeadlineCheckInterval;
    if (std::chrono::steady_clock::now() > deadline_) {
      throw BudgetExceededError("unit deadline exceeded");
    }
  }
}

FaultInjector::FaultInjector(uint64_t seed, double rate) : seed_(seed) {
  if (rate < 0.0) rate = 0.0;
  if (rate > 1.0) rate = 1.0;
  rate_ = rate;
}

bool FaultInjector::ShouldFault(std::string_view site, std::string_view unit) const {
  if (rate_ <= 0.0) return false;
  if (rate_ >= 1.0) return true;
  uint64_t h = Fnv1a(site);
  h = Fnv1a("\x1f", h);  // separator so ("ab","c") != ("a","bc")
  h = Fnv1a(unit, h);
  h = Mix(h ^ Mix(seed_));
  // Top 53 bits → uniform double in [0,1); IEEE arithmetic keeps this
  // bit-identical across platforms, which the determinism contract needs.
  double u = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < rate_;
}

void FaultInjector::MaybeFault(std::string_view site, std::string_view unit) const {
  if (ShouldFault(site, unit)) {
    throw InjectedFaultError("injected fault at " + std::string(site) + " (" +
                             std::string(unit) + ")");
  }
}

std::optional<FaultInjector> FaultInjector::Parse(const std::string& spec,
                                                 std::string* error) {
  auto fail = [&](const std::string& msg) -> std::optional<FaultInjector> {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };
  size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
    return fail("expected SEED:RATE (e.g. 42:0.1), got '" + spec + "'");
  }
  const std::string seed_part = spec.substr(0, colon);
  const std::string rate_part = spec.substr(colon + 1);
  char* end = nullptr;
  unsigned long long seed = std::strtoull(seed_part.c_str(), &end, 10);
  if (end == seed_part.c_str() || *end != '\0') {
    return fail("bad seed '" + seed_part + "' in fault spec");
  }
  end = nullptr;
  double rate = std::strtod(rate_part.c_str(), &end);
  if (end == rate_part.c_str() || *end != '\0') {
    return fail("bad rate '" + rate_part + "' in fault spec");
  }
  if (rate < 0.0 || rate > 1.0) {
    return fail("fault rate must be in [0,1], got '" + rate_part + "'");
  }
  return FaultInjector(static_cast<uint64_t>(seed), rate);
}

}  // namespace vc
